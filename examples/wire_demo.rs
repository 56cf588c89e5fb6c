//! The Vroom protocol live on the wire: a real HTTP/2 server (from-scratch
//! frames + HPACK over TCP) serving a recorded page with PUSH_PROMISE and
//! dependency-hint headers, and a client that performs Vroom's staged fetch.
//!
//! ```sh
//! cargo run -p vroom-examples --example wire_demo
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vroom_html::{ResourceKind, Url};
use vroom_intern::UrlTable;
use vroom_net::{RecordedResponse, ReplayStore};
use vroom_pages::{render_html, LoadContext, PageGenerator, SiteProfile};
use vroom_server::online::scan_served_html;
use vroom_server::wire::{WireClient, WireServer, WireSite};
use vroom_server::{parse_hints, PushPolicy};

fn main() {
    // 1. "Record" a small news page: real HTML bodies for documents,
    //    synthetic bodies (of the right size) for everything else.
    let mut profile = SiteProfile::news();
    profile.n_images = (8, 10);
    profile.n_sync_js = (4, 6);
    let page = PageGenerator::new(profile, 7777).snapshot(&LoadContext::reference());
    let mut store = ReplayStore::new();
    for r in &page.resources {
        let rec = if r.kind == ResourceKind::Html {
            RecordedResponse::with_body(ResourceKind::Html, render_html(&page, r.id))
        } else {
            RecordedResponse::synthetic(r.kind, r.size)
        };
        store.record(r.url.clone(), rec);
    }

    // 2. Server-side online analysis over the real markup (the scanner runs
    //    on the bytes that will be served). Hints are keyed by the store's
    //    interned ids — `record` already interned every page URL.
    let mut hints = BTreeMap::new();
    let root_hints = scan_served_html(&page, 0, store.urls_mut());
    hints.insert(store.urls_mut().intern(page.url.clone()), root_hints);
    for r in &page.resources {
        if r.id != 0 && r.kind == ResourceKind::Html {
            let hs = scan_served_html(&page, r.id, store.urls_mut());
            hints.insert(store.urls_mut().intern(r.url.clone()), hs);
        }
    }

    // 3. Start the Vroom-compliant server.
    let server = WireServer::start(WireSite {
        store: Arc::new(store),
        hints: Arc::new(hints),
        push: PushPolicy::HighPriorityLocal,
        domain: page.url.host.clone(),
        faults: Default::default(),
    })
    .expect("bind");
    println!("vroom server listening on {}", server.addr());

    // 4. The client: request the root, read hints, fetch in tiers.
    let t0 = Instant::now(); // demo binary timing a real TCP exchange, not simulation
    let mut client = WireClient::connect(server.addr()).expect("connect");
    client.fetch(&page.url).expect("GET root");
    let first = client.run(Duration::from_secs(10)).expect("io");

    let root = first.iter().find(|r| r.url == page.url).expect("root");
    let mut client_urls = UrlTable::new();
    let hints = parse_hints(&root.response, &mut client_urls);
    println!(
        "\nGET {} → {} ({} bytes) at {:?}",
        page.url,
        root.response.status,
        root.body.len(),
        t0.elapsed()
    );
    for r in first.iter().filter(|r| r.pushed) {
        println!(
            "  PUSH_PROMISE delivered {} ({} bytes)",
            r.url,
            r.body.len()
        );
    }
    println!(
        "  response carried {} hints ({} preload / {} semi / {} unimportant)",
        hints.len(),
        hints.iter().filter(|h| h.tier == 0).count(),
        hints.iter().filter(|h| h.tier == 1).count(),
        hints.iter().filter(|h| h.tier == 2).count(),
    );

    // Staged fetching, Vroom style: tier by tier.
    let already: Vec<Url> = first.iter().map(|r| r.url.clone()).collect();
    let mut total = first.len();
    for tier in 0..=2u8 {
        let batch: Vec<&vroom_browser::config::Hint> = hints
            .iter()
            .filter(|h| h.tier == tier && !already.contains(client_urls.get(h.url)))
            .collect();
        if batch.is_empty() {
            continue;
        }
        for h in &batch {
            client.fetch(client_urls.get(h.url)).expect("hinted fetch");
        }
        let got = client.run(Duration::from_secs(10)).expect("io");
        println!(
            "  stage {tier}: fetched {} resources ({} KB) by {:?}",
            got.len(),
            got.iter().map(|g| g.body.len()).sum::<usize>() / 1024,
            t0.elapsed()
        );
        total += got.len();
    }
    println!(
        "\ndone: {total} resources over one real HTTP/2 connection in {:?}",
        t0.elapsed()
    );
    // Streams the server reset (and the client fetched again); a healthy
    // serving path resets none.
    println!("resets: {}", client.resets_seen());
    server.stop();
}
