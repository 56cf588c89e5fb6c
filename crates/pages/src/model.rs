//! The page model: a web page as a tree of resources connected by
//! *discovery edges* — the dependency structure that prior work (WProf,
//! Polaris, Klotski) showed governs page load time, and that Vroom's
//! server-side resolution must predict.

use vroom_html::{ExecMode, ResourceKind, Url};
use vroom_sim::SimDuration;

/// Index of a resource within its [`Page`].
pub type ResourceId = usize;

/// Why a resource's URL varies (or doesn't) across loads — the taxonomy of
/// paper §4.1/§4.2 and Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stability {
    /// Fetched identically in every load (logos, frameworks, stylesheets).
    Stable,
    /// Rotates as content changes over hours/days (story images, article
    /// links).
    HourlyFlux,
    /// Differs even across back-to-back loads (ad URLs with random ids) —
    /// the *unpredictable* subset that Vroom leaves to the client.
    PerLoadRandom,
    /// Depends on the user's cookie for the serving domain.
    UserPersonalized,
    /// Depends on the client's device class (DPR-suffixed images etc.).
    DevicePersonalized,
}

/// One resource in a page load.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Index within the page.
    pub id: ResourceId,
    /// Absolute URL for this particular load.
    pub url: Url,
    /// Content class.
    pub kind: ResourceKind,
    /// Transfer size in bytes (headers included, approximately).
    pub size: u64,
    /// CPU time to parse/execute on the reference device (Nexus-6-class).
    pub cpu_cost: SimDuration,
    /// The resource whose processing reveals this URL; `None` for the root.
    pub parent: Option<ResourceId>,
    /// Fraction of the parent's processing at which the URL becomes known
    /// (HTML parents reveal children incrementally; scripts at completion).
    pub discovery_frac: f64,
    /// Script execution mode (`Sync` for non-scripts).
    pub exec: ExecMode,
    /// The iframe (embedded-HTML resource) whose subtree this belongs to,
    /// if any. Iframe descendants are personalization boundaries (§4.2) and
    /// low-priority for scheduling (§4.3 footnote 4).
    pub iframe_root: Option<ResourceId>,
    /// Whether the resource contributes to above-the-fold rendering.
    pub above_fold: bool,
    /// Relative share of above-the-fold pixels this resource paints.
    pub visual_weight: f64,
    /// Freshness lifetime; `None` = uncacheable.
    pub max_age: Option<SimDuration>,
    /// URL-variation class.
    pub stability: Stability,
    /// Whether the URL appears literally in the parent's markup (visible to
    /// online HTML/CSS analysis) as opposed to being constructed by script.
    pub via_markup: bool,
}

impl Resource {
    /// Whether this resource must be parsed/executed (Vroom's high-priority
    /// class).
    pub fn needs_processing(&self) -> bool {
        self.kind.needs_processing()
    }

    /// Vroom's three-tier priority for hints (paper Table 1):
    /// 0 = `Link preload`, 1 = `x-semi-important`, 2 = `x-unimportant`.
    /// Iframe descendants are always low priority (footnote 4).
    pub fn hint_tier(&self) -> u8 {
        if self.iframe_root.is_some() {
            return 2;
        }
        // Embedded documents are processed only after the root HTML has
        // been parsed (paper footnote 4), so prefetching them early would
        // only contend with genuinely blocking resources.
        if self.kind == ResourceKind::Html && self.id != 0 {
            return 2;
        }
        if self.needs_processing() {
            if self.exec == ExecMode::Sync {
                0
            } else {
                1
            }
        } else {
            2
        }
    }
}

/// One load's view of a web page.
#[derive(Debug, Clone)]
pub struct Page {
    /// The page URL (equals the root resource's URL).
    pub url: Url,
    /// Resources in id order; index 0 is the root HTML.
    pub resources: Vec<Resource>,
}

impl Page {
    /// The root HTML resource.
    pub fn root(&self) -> &Resource {
        &self.resources[0]
    }

    /// Children of a resource, in discovery order.
    pub fn children(&self, id: ResourceId) -> impl Iterator<Item = &Resource> {
        self.resources.iter().filter(move |r| r.parent == Some(id))
    }

    /// Total transfer bytes.
    pub fn total_bytes(&self) -> u64 {
        self.resources.iter().map(|r| r.size).sum()
    }

    /// Total CPU cost on the reference device.
    pub fn total_cpu(&self) -> SimDuration {
        self.resources
            .iter()
            .fold(SimDuration::ZERO, |acc, r| acc + r.cpu_cost)
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether the page has no resources (never true for generated pages).
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// All distinct domains, root's first.
    pub fn domains(&self) -> Vec<String> {
        let mut out = vec![self.url.host.clone()];
        for r in &self.resources {
            if !out.contains(&r.url.host) {
                out.push(r.url.host.clone());
            }
        }
        out
    }

    /// The set of URLs in this load.
    pub fn url_set(&self) -> std::collections::HashSet<Url> {
        self.resources.iter().map(|r| r.url.clone()).collect()
    }

    /// Sanity-check structural invariants; used by generator tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.resources.is_empty() {
            return Err("empty page".into());
        }
        if self.resources[0].parent.is_some() {
            return Err("root has a parent".into());
        }
        if self.resources[0].kind != ResourceKind::Html {
            return Err("root is not HTML".into());
        }
        if self.resources[0].url != self.url {
            return Err("root URL mismatch".into());
        }
        let mut seen = std::collections::HashSet::new();
        for (i, r) in self.resources.iter().enumerate() {
            if r.id != i {
                return Err(format!("resource {i} has id {}", r.id));
            }
            if let Some(p) = r.parent {
                if p >= i {
                    return Err(format!("resource {i} has forward parent {p}"));
                }
            } else if i != 0 {
                return Err(format!("non-root {i} has no parent"));
            }
            if !(0.0..=1.0).contains(&r.discovery_frac) {
                return Err(format!("resource {i} discovery_frac {}", r.discovery_frac));
            }
            if let Some(f) = r.iframe_root {
                if self.resources[f].kind != ResourceKind::Html {
                    return Err(format!("resource {i} iframe_root {f} is not HTML"));
                }
            }
            if !seen.insert(r.url.clone()) {
                return Err(format!("duplicate URL {}", r.url));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_page() -> Page {
        let root = Url::https("a.com", "/");
        let mk = |id, url: Url, kind, parent, iframe_root| Resource {
            id,
            url,
            kind,
            size: 1000,
            cpu_cost: SimDuration::from_millis(10),
            parent,
            discovery_frac: 0.5,
            exec: ExecMode::Sync,
            iframe_root,
            above_fold: false,
            visual_weight: 0.0,
            max_age: None,
            stability: Stability::Stable,
            via_markup: true,
        };
        Page {
            url: root.clone(),
            resources: vec![
                mk(0, root, ResourceKind::Html, None, None),
                mk(
                    1,
                    Url::https("a.com", "/a.js"),
                    ResourceKind::Js,
                    Some(0),
                    None,
                ),
                mk(
                    2,
                    Url::https("b.com", "/b.css"),
                    ResourceKind::Css,
                    Some(0),
                    None,
                ),
                mk(
                    3,
                    Url::https("c.com", "/ad.html"),
                    ResourceKind::Html,
                    Some(0),
                    None,
                ),
                mk(
                    4,
                    Url::https("c.com", "/ad.js"),
                    ResourceKind::Js,
                    Some(3),
                    Some(3),
                ),
                mk(
                    5,
                    Url::https("b.com", "/img.png"),
                    ResourceKind::Image,
                    Some(1),
                    None,
                ),
            ],
        }
    }

    #[test]
    fn structure_queries() {
        let p = mini_page();
        p.validate().expect("valid page");
        assert_eq!(p.len(), 6);
        assert_eq!(p.children(0).count(), 3);
        assert_eq!(p.total_bytes(), 6000);
        assert_eq!(p.total_cpu().as_millis(), 60);
        assert_eq!(p.domains(), vec!["a.com", "b.com", "c.com"]);
    }

    #[test]
    fn hint_tiers() {
        let p = mini_page();
        assert_eq!(p.resources[1].hint_tier(), 0, "sync JS is preload");
        assert_eq!(p.resources[4].hint_tier(), 2, "iframe descendant is low");
        assert_eq!(p.resources[5].hint_tier(), 2, "image is unimportant");
        let mut async_js = p.resources[1].clone();
        async_js.exec = ExecMode::Async;
        assert_eq!(async_js.hint_tier(), 1, "async JS is semi-important");
    }

    #[test]
    fn validate_catches_breakage() {
        let mut p = mini_page();
        p.resources[3].parent = Some(4);
        assert!(p.validate().is_err(), "forward parent");

        let mut p = mini_page();
        p.resources[2].url = p.resources[1].url.clone();
        assert!(p.validate().is_err(), "duplicate URL");

        let mut p = mini_page();
        p.resources[1].discovery_frac = 1.5;
        assert!(p.validate().is_err(), "frac out of range");
    }
}
