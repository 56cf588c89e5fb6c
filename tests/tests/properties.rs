//! Property-based tests spanning crates: generated pages of arbitrary seed
//! and context always validate, always load to completion under every
//! policy, and the protocol substrates stay total on adversarial input.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use vroom::{run_load, run_load_faulted, System};
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{DeviceClass, LoadContext, PageGenerator, SiteProfile};
use vroom_sim::SimDuration;

fn arb_ctx() -> impl Strategy<Value = LoadContext> {
    (
        100.0f64..10_000.0,
        any::<u64>(),
        prop_oneof![
            Just(DeviceClass::PhoneSmall),
            Just(DeviceClass::PhoneLarge),
            Just(DeviceClass::Tablet),
        ],
        any::<u64>(),
    )
        .prop_map(|(hours, user_id, device, nonce)| LoadContext {
            hours,
            user_id,
            device,
            nonce,
        })
}

fn arb_profile() -> impl Strategy<Value = SiteProfile> {
    prop_oneof![
        Just(SiteProfile::news()),
        Just(SiteProfile::sports()),
        Just(SiteProfile::top100()),
        Just(SiteProfile::top400()),
    ]
}

/// An arbitrary seeded fault plan, spanning the whole severity range —
/// from barely active to everything-fails-at-once.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0.05f64..1.0).prop_map(|(seed, severity)| FaultPlan::from_seed(seed, severity))
}

fn arb_system() -> impl Strategy<Value = System> {
    prop_oneof![
        Just(System::Http1),
        Just(System::Http2),
        Just(System::PushAllStatic),
        Just(System::PolarisLike),
        Just(System::Vroom),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated page is structurally valid.
    #[test]
    fn generated_pages_always_validate(
        seed in any::<u64>(),
        profile in arb_profile(),
        ctx in arb_ctx(),
    ) {
        let page = PageGenerator::new(profile, seed).snapshot(&ctx);
        prop_assert!(page.validate().is_ok(), "{:?}", page.validate());
        prop_assert!(page.len() >= 10);
    }

    /// Every page loads to completion under the key systems, and the lower
    /// bounds never exceed the real systems.
    #[test]
    fn loads_always_complete_and_bounds_hold(
        seed in 0u64..5_000,
        ctx in arb_ctx(),
    ) {
        let site = PageGenerator::new(SiteProfile::top100(), seed);
        let lte = NetworkProfile::lte();
        let cpu = run_load(&site, &ctx, &lte, System::CpuBound, 3).plt;
        let h2 = run_load(&site, &ctx, &lte, System::Http2, 3).plt;
        let vroom = run_load(&site, &ctx, &lte, System::Vroom, 3).plt;
        prop_assert!(cpu > SimDuration::ZERO);
        prop_assert!(cpu <= h2 + SimDuration::from_millis(1), "cpu bound {cpu} vs h2 {h2}");
        prop_assert!(cpu <= vroom + SimDuration::from_millis(1), "cpu bound {cpu} vs vroom {vroom}");
    }

    /// Back-to-back snapshots differ only in per-load-random URLs, for any
    /// context.
    #[test]
    fn back_to_back_stability_invariant(
        seed in any::<u64>(),
        ctx in arb_ctx(),
        nonce2 in any::<u64>(),
    ) {
        let site = PageGenerator::new(SiteProfile::news(), seed);
        let a = site.snapshot(&ctx);
        let b = site.snapshot(&ctx.back_to_back(nonce2));
        for (x, y) in a.resources.iter().zip(&b.resources) {
            if x.url != y.url {
                prop_assert_eq!(x.stability, vroom_pages::Stability::PerLoadRandom);
            }
        }
    }

    /// Chaos totality: any seeded fault plan, page, and policy still loads
    /// to completion — no panic, no hang — and the per-resource event
    /// trace stays monotone (discovered ≤ requested ≤ fetched ≤ processed
    /// wherever those events exist).
    #[test]
    fn faulted_loads_complete_with_monotone_traces(
        page_seed in any::<u64>(),
        plan in arb_fault_plan(),
        system in arb_system(),
    ) {
        let site = PageGenerator::new(SiteProfile::news(), page_seed);
        let ctx = LoadContext::reference();
        let lte = NetworkProfile::lte();
        let r = run_load_faulted(&site, &ctx, &lte, system, 3, &plan);
        prop_assert!(r.plt > SimDuration::ZERO);
        prop_assert!(
            r.plt < SimDuration::from_secs(15 * 60),
            "{system:?} under plan seed {} took {}", plan.seed, r.plt
        );
        for (i, t) in r.resources.iter().enumerate() {
            if let Some(req) = t.requested {
                prop_assert!(t.discovered <= req, "resource {i}: requested before discovery");
                prop_assert!(req <= t.fetched, "resource {i}: fetched before request");
            }
            if let Some(proc_) = t.processed {
                prop_assert!(t.fetched <= proc_, "resource {i}: processed before fetch");
            }
            if t.failed {
                prop_assert!(t.requested.is_some(), "resource {i}: failed but never attempted");
                prop_assert!(t.processed.is_none(), "resource {i}: failed yet processed");
            }
        }
    }

    /// The real HTML renderer and scanner agree with the model for any page.
    #[test]
    fn renderer_scanner_model_agreement(seed in any::<u64>(), ctx in arb_ctx()) {
        let page = PageGenerator::new(SiteProfile::top100(), seed).snapshot(&ctx);
        let markup = vroom_pages::render_html(&page, 0);
        let found = vroom_html::scan_html(&page.url, &markup);
        let found_urls: std::collections::HashSet<_> =
            found.iter().map(|d| &d.url).collect();
        for child in page.children(0) {
            prop_assert_eq!(
                found_urls.contains(&child.url),
                child.via_markup,
                "disagreement on {}",
                child.url
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The HTTP/2 server connection never panics on arbitrary bytes after
    /// a valid preface.
    #[test]
    fn http2_server_is_total_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut server = vroom_http2::Connection::server(vroom_http2::Settings::default());
        let mut input = vroom_http2::PREFACE.to_vec();
        input.extend_from_slice(&garbage);
        let _ = server.recv(&input);
        let _ = server.take_output();
        while server.poll_event().is_some() {}
    }

    /// Resource discovery terminates on arbitrary markup, multi-byte text
    /// inside tags, scripts and style blocks included, and finds only
    /// http(s) URLs.
    #[test]
    fn scan_html_is_total(pieces in proptest::collection::vec(prop_oneof![
        "[ -~éß日]{0,8}",
        Just("<style>".to_string()),
        Just("<script>".to_string()),
        Just("<img src=".to_string()),
        Just("url(".to_string()),
        Just("@import ".to_string()),
    ], 0..48)) {
        let markup = pieces.concat();
        let base = vroom_html::Url::https("a.com", "/d/index.html");
        for d in vroom_html::scan_html(&base, &markup) {
            prop_assert!(d.url.scheme.starts_with("http"), "{} in {markup:?}", d.url);
        }
    }
}

fn arb_url() -> impl Strategy<Value = vroom_html::Url> {
    (
        prop_oneof![Just("http"), Just("https")],
        proptest::collection::vec("[a-z]{1,8}", 2..4),
        proptest::collection::vec("[a-z0-9._-]{1,10}", 0..4),
        prop_oneof![Just(None), "[a-z]=[0-9]{1,4}".prop_map(Some)],
    )
        .prop_map(|(scheme, host_labels, segments, query)| {
            let host = host_labels.join(".");
            let mut path = String::new();
            for s in &segments {
                path.push('/');
                path.push_str(s);
            }
            if let Some(q) = query {
                if path.is_empty() {
                    path.push('/');
                }
                path.push('?');
                path.push_str(&q);
            }
            vroom_html::Url::new(scheme, host, path)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `UrlTable` intern → resolve is the identity on arbitrary URLs and
    /// the reverse index agrees.
    #[test]
    fn url_table_intern_resolve_round_trips(urls in proptest::collection::vec(arb_url(), 1..40)) {
        let mut table = vroom_intern::UrlTable::new();
        let ids: Vec<_> = urls.iter().map(|u| table.intern(u.clone())).collect();
        let unique: std::collections::BTreeSet<_> = urls.iter().collect();
        prop_assert_eq!(table.len(), unique.len(), "one id per distinct URL");
        for (u, &id) in urls.iter().zip(&ids) {
            prop_assert_eq!(table.get(id), u);
            prop_assert_eq!(table.url(id), Some(u));
            prop_assert_eq!(table.lookup(u), Some(id));
        }
    }

    /// Ids are a pure function of insertion order: two tables filled with
    /// the same sequence agree on every id (and compare equal), which is
    /// why interning cannot perturb any deterministic trace.
    #[test]
    fn url_table_ids_are_insertion_deterministic(urls in proptest::collection::vec(arb_url(), 0..40)) {
        let fill = || {
            let mut t = vroom_intern::UrlTable::new();
            let ids: Vec<_> = urls.iter().map(|u| t.intern(u.clone())).collect();
            (t, ids)
        };
        let (ta, ids_a) = fill();
        let (tb, ids_b) = fill();
        prop_assert_eq!(ids_a, ids_b, "same insertion order must mint the same ids");
        prop_assert_eq!(ta, tb);
    }
}

/// One step driven through a `UrlTable` and its reference oracle.
#[derive(Debug, Clone)]
enum TableOp {
    Intern(vroom_html::Url),
    InternRef(vroom_html::Url),
    Lookup(vroom_html::Url),
}

/// URLs on three hosts that differ only in path or query, so most share a
/// host with many others and a lookup often misses by one character.
fn arb_clustered_url() -> impl Strategy<Value = vroom_html::Url> {
    (
        prop_oneof![Just("http"), Just("https")],
        0u8..3,
        0u16..80,
        prop_oneof![Just(None), (0u8..6).prop_map(Some)],
    )
        .prop_map(|(scheme, host, path, query)| {
            let mut p = format!("/static/{path}.js");
            if let Some(q) = query {
                p.push_str(&format!("?v={q}"));
            }
            vroom_html::Url::new(scheme, format!("cdn{host}.example.com"), p)
        })
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        arb_clustered_url().prop_map(TableOp::Intern),
        arb_clustered_url().prop_map(TableOp::InternRef),
        arb_clustered_url().prop_map(TableOp::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hash-indexed `UrlTable` agrees with a `BTreeMap` oracle on every
    /// step of an interleaved intern, intern-by-reference and lookup
    /// sequence: the same ids, the same hits and misses, and iteration over
    /// the same `(url, id)` pairs; its rendered strings equal the URL's own. The
    /// longest sequences intern about 700 distinct URLs, which grows the
    /// index from 16 to 2048 slots.
    #[test]
    fn url_table_matches_btreemap_oracle(ops in proptest::collection::vec(arb_table_op(), 0..1200)) {
        use vroom_intern::UrlId;
        let mut table = vroom_intern::UrlTable::new();
        let mut oracle: std::collections::BTreeMap<vroom_html::Url, UrlId> =
            std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                TableOp::Intern(u) | TableOp::InternRef(u) => {
                    let fresh = UrlId::from_index(oracle.len());
                    let want = *oracle.entry(u.clone()).or_insert(fresh);
                    let got = match op {
                        TableOp::Intern(_) => table.intern(u.clone()),
                        _ => table.intern_ref(u),
                    };
                    prop_assert_eq!(got, want, "id of {}", u);
                    prop_assert_eq!(table.len(), oracle.len(), "hit or miss on {}", u);
                }
                TableOp::Lookup(u) => {
                    prop_assert_eq!(table.lookup(u), oracle.get(u).copied(), "lookup of {}", u);
                }
            }
        }
        let got: std::collections::BTreeMap<&vroom_html::Url, UrlId> =
            table.iter().map(|(id, u)| (u, id)).collect();
        let want: std::collections::BTreeMap<&vroom_html::Url, UrlId> =
            oracle.iter().map(|(u, &id)| (u, id)).collect();
        prop_assert_eq!(table.iter().count(), oracle.len());
        prop_assert_eq!(got, want);
        for (u, &id) in &oracle {
            prop_assert_eq!(table.get(id), u);
            prop_assert_eq!(&**table.full_url(id), u.to_string());
            prop_assert_eq!(&**table.host(id), u.host.as_str());
        }
    }
}
