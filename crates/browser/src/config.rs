//! Load configuration: everything that distinguishes one policy/baseline
//! from another when loading the same page over the same network.
//!
//! The browser engine is policy-agnostic; the Vroom core crate builds
//! [`LoadConfig`]s for each of the paper's systems (HTTP/1.1, HTTP/2
//! baseline, push-only variants, Polaris-like fine-grained dependency
//! tracking, full Vroom, and the lower bounds).

use std::collections::BTreeMap;
use std::sync::Arc;
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::fault::FaultPlan;
use vroom_sim::SimDuration;

/// The HTTP version in use between the client and every server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// HTTP/1.1: up to six parallel connections per domain (the browser
    /// pool size in practice), one outstanding response per connection.
    H1,
    /// HTTP/2: one multiplexed connection per domain; the server may push,
    /// and returns complete responses in request order only when
    /// [`LoadConfig::ordered_responses`] is set (Vroom's modified server).
    H2,
}

/// One dependency hint attached to an HTML response (a parsed `Link
/// preload` / `x-semi-important` / `x-unimportant` header entry).
///
/// Hints carry interned [`UrlId`]s: hint evaluation and push selection are
/// hot paths, and ids make a hint three machine words (`Copy`) instead of
/// three owned strings. The string form is materialized only at the
/// wire/JSON boundary via the [`LoadConfig::urls`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hint {
    /// Interned URL the client should fetch.
    pub url: UrlId,
    /// Priority tier: 0 = preload, 1 = semi-important, 2 = unimportant.
    pub tier: u8,
    /// Size the server would serve for this URL — used when the hint is a
    /// false positive (the URL is not part of the client's actual load):
    /// the client still downloads these bytes and wastes them.
    pub size_hint: u64,
}

/// Per-HTML-response server behaviour: what it pushes and hints.
#[derive(Debug, Clone, Default)]
pub struct ServerModel {
    /// Hints keyed by the HTML resource's interned URL (root or iframe
    /// HTML). Values are in the order the client will need to process them
    /// (the order Vroom-compliant servers emit, §5.1). Refcounted so a
    /// fleet's hint store can hand the same resolved list to every
    /// concurrent load without copying; mutating builders (fault-plan
    /// corruption, test fixtures) go through `Arc::make_mut`.
    pub hints: BTreeMap<UrlId, Arc<Vec<Hint>>>,
    /// Pushed objects keyed by the HTML resource's interned URL. Every
    /// pushed URL must be served by the same domain as the HTML (integrity
    /// rule). Unknown (stale) URLs are allowed and waste `size` bytes.
    pub pushes: BTreeMap<UrlId, Vec<Hint>>,
}

/// How the client schedules requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchPolicy {
    /// Request every known URL as soon as it is known (baselines, Polaris
    /// and the "Push All, Fetch ASAP" strawman).
    OnDiscovery,
    /// Vroom's staged scheduler (§4.3/§5.2): fetch hint tier 0 first (in
    /// hint order), tier 1 once tier 0 has drained, then tier 2.
    /// Parser-discovered resources are requested on discovery regardless.
    VroomStaged,
}

/// A warm-cache entry for a URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Time since the entry was stored.
    pub age: SimDuration,
    /// Freshness lifetime granted when stored.
    pub max_age: SimDuration,
}

impl CacheEntry {
    /// Whether the entry can be used without revalidation.
    pub fn fresh(&self) -> bool {
        self.age < self.max_age
    }
}

/// Full configuration of one page load.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// HTTP version used with every domain.
    pub http: HttpVersion,
    /// Intern table resolving every [`UrlId`] in [`LoadConfig::server`].
    /// Baselines with no hints or pushes leave it empty. Shared by `Arc`
    /// so a fleet of concurrent loads can resolve against the server's one
    /// table without per-load re-interning; the engine only reads it, and
    /// single-load builders that need to extend it (fault-plan corruption)
    /// go through `Arc::make_mut` copy-on-write.
    pub urls: Arc<UrlTable>,
    /// Server push + hint behaviour.
    pub server: ServerModel,
    /// Client scheduling policy.
    pub fetch_policy: FetchPolicy,
    /// CPU slowdown factor relative to the reference device (1.0 = Nexus-6).
    pub cpu_factor: f64,
    /// Network-bound lower bound: all URLs known at t = 0 and no CPU work.
    pub network_bound: bool,
    /// CPU-bound lower bound: every fetch completes instantly.
    pub zero_network: bool,
    /// Warm HTTP cache.
    pub warm_cache: BTreeMap<Url, CacheEntry>,
    /// HTTP/2 servers return complete responses in request order — the
    /// paper's Mahimahi modification (§5.1) that Vroom relies on to deliver
    /// resources in processing order. Stock HTTP/2 multiplexes instead
    /// (`false`). HTTP/1.1 is inherently ordered per connection.
    pub ordered_responses: bool,
    /// Polaris-style fine-grained dependency tracking: false parser/script
    /// ordering constraints are lifted (scripts do not stall document
    /// parsing). Set alone it is Polaris; with
    /// [`FetchPolicy::VroomStaged`] it is the Vroom+Polaris hybrid the
    /// paper's §6.1 sketches as future work.
    pub fine_grained_dependencies: bool,
    /// Injected fault schedule. Inactive plans keep the engine on its
    /// fault-free fast path: no timers, no extra events, byte-identical
    /// behaviour to an engine without fault support. While a plan is
    /// active, every fetch runs under the engine's fixed
    /// `RetryBudget::standard()` (per-request timeout, capped backoff);
    /// the simulated network cannot fail spontaneously, so fault-free
    /// loads never time out by construction.
    pub fault: FaultPlan,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            http: HttpVersion::H2,
            urls: Arc::new(UrlTable::new()),
            server: ServerModel::default(),
            fetch_policy: FetchPolicy::OnDiscovery,
            cpu_factor: 1.0,
            network_bound: false,
            zero_network: false,
            warm_cache: BTreeMap::new(),
            ordered_responses: false,
            fine_grained_dependencies: false,
            fault: FaultPlan::none(),
        }
    }
}

impl LoadConfig {
    /// Plain HTTP/1.1 load — the paper's "loads from web" status quo.
    pub fn http1_baseline() -> Self {
        LoadConfig {
            http: HttpVersion::H1,
            ..Default::default()
        }
    }

    /// Plain HTTP/2 load, no push, no hints.
    pub fn http2_baseline() -> Self {
        LoadConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_freshness() {
        let fresh = CacheEntry {
            age: SimDuration::from_secs(10),
            max_age: SimDuration::from_secs(60),
        };
        let stale = CacheEntry {
            age: SimDuration::from_secs(61),
            max_age: SimDuration::from_secs(60),
        };
        assert!(fresh.fresh());
        assert!(!stale.fresh());
    }

    #[test]
    fn default_config_is_h2_on_discovery() {
        let c = LoadConfig::default();
        assert_eq!(c.http, HttpVersion::H2);
        assert_eq!(c.fetch_policy, FetchPolicy::OnDiscovery);
        assert!(!c.zero_network && !c.network_bound);
    }
}
