//! Invariant tests of the transport (DESIGN §2r), swept over the
//! chaos suite's fault plans at LTE and 2G. Every load's transport keeps a
//! [`Trace`] of what it did, and each load must show that:
//!
//! * each response put on the link ends exactly once: delivered, failed
//!   (truncated) or cancelled — or is still on the link when onload stops
//!   the load;
//! * each target is delivered at most once per attempt, and never sent
//!   before it was requested;
//! * bytes delivered plus bytes cancelled (plus bytes still on the link)
//!   equal bytes sent, and the link never holds more of a cancelled
//!   response than was sent;
//! * an ordered connection (HTTP/1.1, or Vroom's modified server, §5.1)
//!   carries one response on the link at a time.

use crate::config::{FetchPolicy, Hint, HttpVersion, LoadConfig, ServerModel};
use crate::engine::{BrowserEngine, EngineScratch};
use crate::transport::{Addr, Req, Target};
use std::collections::BTreeMap;
use std::sync::Arc;
use vroom_html::Url;
use vroom_intern::UrlTable;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, LoadContext, Page};
use vroom_sim::{SimDuration, SimTime};

/// One thing a load's transport did, in order.
#[derive(Debug, Clone)]
pub(crate) enum Trace {
    /// A request taken: fetched, or a push the browser claimed.
    Requested(Req, SimTime),
    /// A response put on the link: transfer id, connection, request, bytes.
    Sent(u64, Addr, Req, u64, SimTime),
    /// A flight left the link complete: whole (delivered) or truncated.
    Ended(u64, bool),
    /// A flight was cancelled, with the bytes the link still held for it.
    Cancelled(u64, Option<u64>),
    /// The flights still on the link when the load stopped.
    Open(Vec<u64>),
}

/// The chaos suite's plans (`tests/tests/chaos.rs`).
fn plans() -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for severity in [0.3, 0.7, 1.0] {
        for i in 0..4u64 {
            plans.push(FaultPlan::from_seed(0xC4A05 ^ (i * 7919), severity));
        }
    }
    plans
}

/// HTTP/1.1, stock HTTP/2 with pushes, and a Vroom-style load: ordered
/// serving, oracle hints in tiers, staged fetching, and same-domain tier-0
/// pushes. One stale hint and one stale push waste bytes.
fn configs(page: &Page) -> Vec<(&'static str, LoadConfig)> {
    let mut urls = UrlTable::new();
    let root = urls.intern(page.url.clone());
    let host = &page.url.host;
    let stale = urls.intern(Url::https(host, "/stale.js"));
    let stale = Hint {
        url: stale,
        tier: 0,
        size_hint: 30_000,
    };
    let mut hints: Vec<Hint> = page.resources[1..]
        .iter()
        .map(|r| Hint {
            url: urls.intern(r.url.clone()),
            tier: r.hint_tier(),
            size_hint: r.size,
        })
        .chain([stale])
        .collect();
    hints.sort_by_key(|h| h.tier);
    let mut pushes: Vec<Hint> = page.resources[1..]
        .iter()
        .filter(|r| &r.url.host == host && r.hint_tier() == 0)
        .map(|r| Hint {
            url: urls.intern(r.url.clone()),
            tier: 0,
            size_hint: r.size,
        })
        .collect();
    pushes.push(stale);
    let server = ServerModel {
        hints: BTreeMap::from([(root, Arc::new(hints))]),
        pushes: BTreeMap::from([(root, pushes)]),
    };
    let urls = Arc::new(urls);
    let push = LoadConfig {
        urls: urls.clone(),
        server: ServerModel {
            hints: BTreeMap::new(),
            ..server.clone()
        },
        ..LoadConfig::http2_baseline()
    };
    let vroom = LoadConfig {
        urls,
        server,
        fetch_policy: FetchPolicy::VroomStaged,
        ordered_responses: true,
        ..LoadConfig::http2_baseline()
    };
    vec![
        ("http1", LoadConfig::http1_baseline()),
        ("http2+push", push),
        ("vroom", vroom),
    ]
}

/// What a trace has shown so far.
#[derive(Default)]
struct Books {
    /// Per request: how often it was taken, and when first.
    requested: BTreeMap<Req, (usize, SimTime)>,
    /// Per flight: its connection, request and bytes.
    sent: BTreeMap<u64, (Addr, Req, u64)>,
    /// Per flight: how it left the link.
    ended: BTreeMap<u64, &'static str>,
    /// Per request: whole responses delivered.
    delivered: BTreeMap<Req, usize>,
    /// Per ordered connection: the flight it has on the link.
    on_link: BTreeMap<Addr, u64>,
    sent_bytes: u64,
    ended_bytes: u64,
}

impl Books {
    /// Flight `tid` leaves the link (or is found on it at the end).
    fn end(&mut self, label: &str, tid: u64, how: &'static str) -> (Req, u64) {
        let Some(&(via, req, bytes)) = self.sent.get(&tid) else {
            panic!("{label}: {how} flight {tid} was never sent");
        };
        if let Some(first) = self.ended.insert(tid, how) {
            panic!("{label}: flight {tid} ({req:?}) ended twice: {first}, then {how}");
        }
        if self.on_link.get(&via) == Some(&tid) {
            self.on_link.remove(&via);
        }
        self.ended_bytes += bytes;
        (req, bytes)
    }
}

/// Check every invariant on one load's trace.
fn check(label: &str, ordered: bool, trace: &[Trace]) {
    let mut b = Books::default();
    for t in trace {
        match t {
            Trace::Requested(req, at) => b.requested.entry(*req).or_insert((0, *at)).0 += 1,
            Trace::Sent(tid, via, req, bytes, at) => {
                let Some(&(_, first)) = b.requested.get(req) else {
                    panic!("{label}: {req:?} sent but never requested");
                };
                assert!(
                    first <= *at,
                    "{label}: {req:?} sent at {at} before its request at {first}"
                );
                if let Some(other) = b.on_link.insert(*via, *tid).filter(|_| ordered) {
                    panic!(
                        "{label}: ordered connection {via:?} sent flight {tid} ({req:?}) \
                         while flight {other} was on the link"
                    );
                }
                b.sent.insert(*tid, (*via, *req, *bytes));
                b.sent_bytes += bytes;
            }
            Trace::Ended(tid, whole) => {
                let (req, _) = b.end(label, *tid, "ended");
                if *whole {
                    *b.delivered.entry(req).or_default() += 1;
                }
            }
            Trace::Cancelled(tid, remaining) => {
                let (req, bytes) = b.end(label, *tid, "cancelled");
                let Some(remaining) = *remaining else {
                    panic!("{label}: cancelled flight {tid} ({req:?}) was not on the link");
                };
                assert!(
                    remaining <= bytes,
                    "{label}: link held {remaining} of {bytes} bytes of {req:?}"
                );
            }
            Trace::Open(open) => {
                for &tid in open {
                    b.end(label, tid, "open");
                }
            }
        }
    }
    assert!(
        matches!(trace.last(), Some(Trace::Open(_))),
        "{label}: trace must end with the open flights"
    );
    let unended: Vec<_> = b
        .sent
        .keys()
        .filter(|tid| !b.ended.contains_key(tid))
        .collect();
    assert!(
        unended.is_empty(),
        "{label}: flights {unended:?} neither ended, cancelled nor open"
    );
    assert_eq!(
        b.sent_bytes, b.ended_bytes,
        "{label}: bytes sent vs delivered + cancelled + open"
    );
    for (req, n) in &b.delivered {
        let asked = b.requested[req].0;
        assert!(
            *n <= asked,
            "{label}: {req:?} delivered {n} times for {asked} requests"
        );
        if matches!(req.target, Target::Real(_)) {
            assert_eq!(
                asked, 1,
                "{label}: {req:?} requested {asked} times in one attempt"
            );
        }
    }
}

/// Load every site under every config and plan on `profile`, checking each
/// load's trace. Returns how many loads ran, and how many flights were
/// truncated and cancelled across them.
fn sweep(profile: &NetworkProfile) -> (usize, usize, usize) {
    let corpus = Corpus::small(2026, 2);
    let ctx = LoadContext::reference();
    let mut scratch = EngineScratch::default();
    let (mut loads, mut truncated, mut cancelled) = (0, 0, 0);
    for (site, generator) in corpus.sites.iter().enumerate() {
        let page = generator.snapshot(&ctx);
        for (name, cfg) in configs(&page) {
            let ordered = cfg.ordered_responses || cfg.http == HttpVersion::H1;
            for plan in plans() {
                let cfg = LoadConfig {
                    fault: plan.clone(),
                    ..cfg.clone()
                };
                let r = BrowserEngine::load_with_scratch(&page, profile, &cfg, &mut scratch);
                assert!(r.plt < SimDuration::from_secs(15 * 60));
                let label = format!("{} site {site} {name} plan {:#x}", profile.name, plan.seed);
                let trace = &scratch.net.ledger;
                check(&label, ordered, trace);
                loads += 1;
                truncated += trace
                    .iter()
                    .filter(|t| matches!(t, Trace::Ended(_, false)))
                    .count();
                cancelled += trace
                    .iter()
                    .filter(|t| matches!(t, Trace::Cancelled(..)))
                    .count();
            }
        }
    }
    (loads, truncated, cancelled)
}

#[test]
fn transport_invariants_hold_under_every_fault_plan_at_lte() {
    let (loads, truncated, cancelled) = sweep(&NetworkProfile::lte());
    assert_eq!(loads, 2 * 3 * 12);
    assert!(
        truncated > 0 && cancelled > 0,
        "the plans must cut responses short"
    );
}

#[test]
fn transport_invariants_hold_under_every_fault_plan_at_2g() {
    let (loads, truncated, cancelled) = sweep(&NetworkProfile::two_g());
    assert_eq!(loads, 2 * 3 * 12);
    assert!(
        truncated > 0 && cancelled > 0,
        "the plans must cut responses short"
    );
}
