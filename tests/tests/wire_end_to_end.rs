//! End-to-end wire tests: a Vroom-compliant server speaking real HTTP/2
//! over real TCP sockets, serving real rendered HTML, with a client that
//! consumes PUSH_PROMISEs and dependency-hint headers — the reproduction's
//! equivalent of the paper's §5 implementation, exercised live.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vroom_browser::config::Hint;
use vroom_html::{ResourceKind, Url};
use vroom_http2::{Connection, ErrorCode, Event, Request, Settings};
use vroom_intern::{UrlId, UrlTable};
use vroom_net::{RecordedResponse, ReplayStore, RetryBudget};
use vroom_pages::{render_html, LoadContext, Page, PageGenerator, SiteProfile};
use vroom_server::online::scan_served_html;
use vroom_server::wire::{WireClient, WireClock, WireFaults, WireServer, WireSite};
use vroom_server::{parse_hints, PushPolicy};

/// Record a page into a replay store (the Mahimahi "record" phase), with
/// real HTML bodies for the documents.
fn record(page: &Page) -> ReplayStore {
    let mut store = ReplayStore::new();
    for r in &page.resources {
        let rec = if r.kind == ResourceKind::Html {
            RecordedResponse::with_body(ResourceKind::Html, render_html(page, r.id))
        } else {
            RecordedResponse::synthetic(r.kind, r.size)
        };
        store.record(r.url.clone(), rec);
    }
    store
}

/// Hints for every HTML document, from the real scanner over real markup.
/// Keys and hint URLs are interned into the store's own table.
fn hints_from_markup(page: &Page, store: &mut ReplayStore) -> BTreeMap<UrlId, Vec<Hint>> {
    let mut out = BTreeMap::new();
    let root = scan_served_html(page, 0, store.urls_mut());
    out.insert(store.urls_mut().intern(page.url.clone()), root);
    for r in &page.resources {
        if r.id != 0 && r.kind == ResourceKind::Html {
            let hs = scan_served_html(page, r.id, store.urls_mut());
            out.insert(store.urls_mut().intern(r.url.clone()), hs);
        }
    }
    out
}

fn start_server(page: &Page, push: PushPolicy) -> WireServer {
    let mut store = record(page);
    let hints = hints_from_markup(page, &mut store);
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(hints),
        push,
        domain: page.url.host.clone(),
        faults: Default::default(),
    };
    WireServer::start(site).expect("bind loopback")
}

fn small_page() -> Page {
    // A small news site keeps the wire test fast.
    let mut profile = SiteProfile::news();
    profile.n_images = (6, 8);
    profile.n_sync_js = (3, 5);
    profile.n_async_js = (2, 3);
    profile.n_iframes = (1, 2);
    profile.js_children = (2, 3);
    PageGenerator::new(profile, 9090).snapshot(&LoadContext::reference())
}

#[test]
fn vroom_server_pushes_and_hints_over_real_tcp() {
    let page = small_page();
    let server = start_server(&page, PushPolicy::HighPriorityLocal);

    let mut client = WireClient::connect(server.addr()).expect("connect");
    client.fetch(&page.url).expect("request root");
    let responses = client.run(Duration::from_secs(10)).expect("drive io");

    // The root HTML arrived with the right body.
    let root = responses
        .iter()
        .find(|r| r.url == page.url)
        .expect("root response");
    assert_eq!(root.response.status, 200);
    let body = String::from_utf8(root.body.clone()).expect("utf-8 html");
    assert!(body.contains("<!DOCTYPE html>"));

    // Hint headers are present and parse back into tiers (Table 1).
    let mut urls = UrlTable::new();
    let hints = parse_hints(&root.response, &mut urls);
    assert!(!hints.is_empty(), "root response must carry hints");
    assert!(hints.iter().any(|h| h.tier == 0), "Link preload present");
    assert!(hints.iter().any(|h| h.tier == 2), "x-unimportant present");
    // CORS exposure for the JS scheduler (§5.2 footnote 7).
    assert!(root
        .response
        .header_values("access-control-expose-headers")
        .next()
        .is_some());

    // High-priority same-domain resources were pushed.
    let pushed: Vec<_> = responses.iter().filter(|r| r.pushed).collect();
    assert!(!pushed.is_empty(), "server must push high-priority content");
    for p in &pushed {
        assert_eq!(p.url.host, page.url.host, "push is same-domain only");
        let model = page
            .resources
            .iter()
            .find(|r| r.url == p.url)
            .expect("pushed URL is a real resource");
        assert_eq!(model.hint_tier(), 0, "only tier-0 content is pushed");
        assert_eq!(p.body.len() as u64, model.size, "full body pushed");
    }
    server.stop();
}

#[test]
fn client_can_fetch_hinted_resources_in_tiers() {
    let page = small_page();
    let server = start_server(&page, PushPolicy::None);

    let mut client = WireClient::connect(server.addr()).expect("connect");
    client.fetch(&page.url).expect("request root");
    let responses = client.run(Duration::from_secs(10)).expect("io");
    let root = responses.iter().find(|r| r.url == page.url).expect("root");
    let mut urls = UrlTable::new();
    let hints = parse_hints(&root.response, &mut urls);

    // Stage 0: fetch every preload-tier hint on the same domain set.
    let tier0: Vec<&Hint> = hints
        .iter()
        .filter(|h| h.tier == 0 && urls.get(h.url).host == page.url.host)
        .collect();
    assert!(!tier0.is_empty());
    for h in &tier0 {
        client.fetch(urls.get(h.url)).expect("hinted fetch");
    }
    let fetched = client.run(Duration::from_secs(10)).expect("io");
    assert_eq!(fetched.len(), tier0.len(), "every hinted fetch completed");
    for f in &fetched {
        assert_eq!(f.response.status, 200);
        let model = page.resources.iter().find(|r| r.url == f.url).unwrap();
        assert_eq!(f.body.len() as u64, model.size);
    }
    server.stop();
}

#[test]
fn unknown_urls_get_404_over_the_wire() {
    let page = small_page();
    let server = start_server(&page, PushPolicy::None);
    let mut client = WireClient::connect(server.addr()).expect("connect");
    client
        .fetch(&Url::https(
            page.url.host.clone(),
            "/definitely-not-there.js",
        ))
        .expect("request");
    let responses = client.run(Duration::from_secs(5)).expect("io");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].response.status, 404);
    server.stop();
}

#[test]
fn large_bodies_arrive_whole_over_many_data_frames() {
    // A 700 KB body leaves as dozens of max-frame-size (16 KiB) DATA
    // frames and must reassemble to exactly its recorded length.
    let url = Url::https("big.example", "/huge.jpg");
    let mut store = ReplayStore::new();
    store.record(
        url.clone(),
        RecordedResponse::synthetic(ResourceKind::Image, 700_000),
    );
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(BTreeMap::new()),
        push: PushPolicy::None,
        domain: "big.example".into(),
        faults: Default::default(),
    };
    let server = WireServer::start(site).expect("bind");
    let mut client = WireClient::connect(server.addr()).expect("connect");
    client.fetch(&url).expect("request");
    let responses = client.run(Duration::from_secs(20)).expect("io");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].body.len(), 700_000);
    server.stop();
}

#[test]
fn injected_truncation_recovers_via_client_retry_over_tcp() {
    // The server truncates the first serve of one URL mid-body and resets
    // the stream; the WireClient's retry budget re-fetches it and the
    // final set of responses is complete and correct.
    let url = Url::https("flaky.example", "/app.js");
    let other = Url::https("flaky.example", "/solid.css");
    let mut store = ReplayStore::new();
    store.record(
        url.clone(),
        RecordedResponse::synthetic(ResourceKind::Js, 40_000),
    );
    store.record(
        other.clone(),
        RecordedResponse::synthetic(ResourceKind::Css, 9_000),
    );
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(BTreeMap::new()),
        push: PushPolicy::None,
        domain: "flaky.example".into(),
        faults: WireFaults::truncate_once([url.clone()]),
    };
    let server = WireServer::start(site).expect("bind");
    let mut client = WireClient::connect(server.addr())
        .expect("connect")
        .with_retry(RetryBudget {
            backoff_base: vroom_sim::SimDuration::from_millis(10),
            ..RetryBudget::standard()
        });
    client.fetch(&url).expect("request");
    client.fetch(&other).expect("request");
    let responses = client.run(Duration::from_secs(15)).expect("io");
    assert_eq!(client.resets_seen(), 1, "one injected RST_STREAM");
    assert_eq!(responses.len(), 2, "both URLs complete after the retry");
    for r in &responses {
        if r.url == url {
            assert_eq!(r.body.len(), 40_000, "retried body is complete");
        } else {
            assert_eq!(r.body.len(), 9_000);
        }
    }
    server.stop();
}

#[test]
fn concurrent_requests_multiplex_on_one_connection() {
    let page = small_page();
    let server = start_server(&page, PushPolicy::None);
    let mut client = WireClient::connect(server.addr()).expect("connect");
    let targets: Vec<Url> = page
        .resources
        .iter()
        .filter(|r| r.url.host == page.url.host)
        .take(8)
        .map(|r| r.url.clone())
        .collect();
    for t in &targets {
        client.fetch(t).expect("request");
    }
    let responses = client.run(Duration::from_secs(15)).expect("io");
    assert_eq!(responses.len(), targets.len());
    server.stop();
}

/// Drive a raw client connection over TCP, collecting its events until
/// one satisfies `stop`. Panics if the server stays silent for 10 s.
fn pump_until(
    sock: &mut TcpStream,
    conn: &mut Connection,
    mut stop: impl FnMut(&Event) -> bool,
) -> Vec<Event> {
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut seen = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        sock.write_all(&conn.take_output()).expect("write");
        let n = sock.read(&mut buf).expect("server answered in time");
        assert!(n > 0, "server closed the connection");
        conn.recv(&buf[..n]).expect("well-formed frames");
        while let Some(ev) = conn.poll_event() {
            let done = stop(&ev);
            seen.push(ev);
            if done {
                return seen;
            }
        }
    }
}

#[test]
fn default_window_peer_gets_every_body_without_resets() {
    // A peer on `Settings::default()` keeps the RFC's 64 KiB connection
    // window, shared by every response and push. Most bodies must wait for
    // its WINDOW_UPDATEs; they are sent as the credit arrives, never reset.
    let page = small_page();
    let recorded = record(&page);
    let server = start_server(&page, PushPolicy::HighPriorityLocal);
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    let mut conn = Connection::client(Settings::default());
    let mut bodies: BTreeMap<u32, (Url, Vec<u8>)> = BTreeMap::new();
    for r in page
        .resources
        .iter()
        .filter(|r| r.url.host == page.url.host)
    {
        let req = Request::get(r.url.host.as_str(), r.url.path.as_str());
        let sid = conn.send_request(&req, true).expect("request");
        bodies.insert(sid, (r.url.clone(), Vec::new()));
    }
    let mut open: BTreeSet<u32> = bodies.keys().copied().collect();
    let mut resets = 0;
    pump_until(&mut sock, &mut conn, |ev| {
        match ev {
            Event::PushPromise {
                promised_stream_id,
                fields,
                ..
            } => {
                let req = Request::from_fields(fields).expect("promised request");
                let url = Url::https(&*req.authority, &*req.path);
                bodies.insert(*promised_stream_id, (url, Vec::new()));
                open.insert(*promised_stream_id);
            }
            Event::Headers {
                stream_id,
                end_stream: true,
                ..
            } => {
                open.remove(stream_id);
            }
            Event::Data {
                stream_id,
                data,
                end_stream,
            } => {
                if let Some((_, body)) = bodies.get_mut(stream_id) {
                    body.extend_from_slice(data);
                }
                if *end_stream {
                    open.remove(stream_id);
                }
            }
            Event::StreamReset { stream_id, .. } => {
                resets += 1;
                open.remove(stream_id);
            }
            _ => {}
        }
        open.is_empty()
    });
    assert_eq!(resets, 0, "no stream was reset");
    assert!(bodies.keys().any(|id| id % 2 == 0), "the root pushed");
    let total: usize = bodies.values().map(|(_, b)| b.len()).sum();
    assert!(total > 65_535, "the bodies outgrow the connection window");
    for (url, body) in bodies.values() {
        let want = recorded.lookup(url).map(RecordedResponse::body_bytes);
        assert_eq!(want.as_deref(), Some(body.as_slice()), "{url} is complete");
    }
    server.stop();
}

/// A clock the test sets by hand.
#[derive(Default)]
struct FakeClock(AtomicU64);

impl FakeClock {
    fn set(&self, t: Duration) {
        self.0.store(t.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl WireClock for FakeClock {
    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::SeqCst))
    }
}

#[test]
fn stream_blocked_past_the_budget_timeout_is_reset() {
    let url = Url::https("stuck.example", "/never.js");
    let mut store = ReplayStore::new();
    store.record(
        url.clone(),
        RecordedResponse::synthetic(ResourceKind::Js, 10_000),
    );
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(BTreeMap::new()),
        push: PushPolicy::None,
        domain: "stuck.example".into(),
        faults: Default::default(),
    };
    let clock = Arc::new(FakeClock::default());
    let server = WireServer::start_with_clock(site, clock.clone()).expect("bind");
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    // The peer announces a zero stream window and never opens it.
    let mut conn = Connection::client(Settings {
        initial_window_size: 0,
        ..Settings::default()
    });
    let sid = conn
        .send_request(&Request::get("stuck.example", "/never.js"), true)
        .expect("request");
    pump_until(
        &mut sock,
        &mut conn,
        |ev| matches!(ev, Event::Headers { stream_id, .. } if *stream_id == sid),
    );

    // Keep the connection alive with a PING every 5 s of clock time, under
    // the server's 10 s idle limit. The stream has been blocked since time
    // 0, and nothing is reset until it has been blocked past the timeout.
    let timeout = Duration::from_nanos(RetryBudget::standard().timeout.as_nanos());
    let step = Duration::from_secs(5);
    let mut now = Duration::ZERO;
    while now + step <= timeout {
        now += step;
        clock.set(now);
        let payload = now.as_secs().to_be_bytes();
        conn.ping(payload);
        let seen = pump_until(
            &mut sock,
            &mut conn,
            |ev| matches!(ev, Event::PingAcked(p) if *p == payload),
        );
        assert!(
            !seen.iter().any(|e| matches!(e, Event::StreamReset { .. })),
            "reset after only {now:?} blocked"
        );
    }
    clock.set(now + step);
    let seen = pump_until(&mut sock, &mut conn, |ev| {
        matches!(ev, Event::StreamReset { .. })
    });
    assert!(matches!(
        seen.last(),
        Some(Event::StreamReset { stream_id, code: ErrorCode::FlowControlError }) if *stream_id == sid
    ));
    server.stop();
}

#[test]
fn stop_returns_while_a_peer_has_stopped_reading() {
    // With the vroom client's open windows, a 16 MB body can never fit in
    // the loopback socket buffers of a peer that stops reading: the
    // server's write stays blocked, and shutdown must not wait on it.
    let url = Url::https("big.example", "/huge.bin");
    let mut store = ReplayStore::new();
    store.record(
        url.clone(),
        RecordedResponse::synthetic(ResourceKind::Media, 16 << 20),
    );
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(BTreeMap::new()),
        push: PushPolicy::None,
        domain: "big.example".into(),
        faults: Default::default(),
    };
    let server = WireServer::start(site).expect("bind");
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    let mut conn = Connection::client(Settings::vroom_client());
    let sid = conn
        .send_request(&Request::get("big.example", "/huge.bin"), true)
        .expect("request");
    // The response headers leave in the same write as the body, so once
    // they arrive the server is writing the body; then the peer stops.
    pump_until(
        &mut sock,
        &mut conn,
        |ev| matches!(ev, Event::Headers { stream_id, .. } if *stream_id == sid),
    );
    let (stopped, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = stopped.send(());
    });
    assert!(
        done.recv_timeout(Duration::from_secs(10)).is_ok(),
        "stop hung on a connection whose peer stopped reading"
    );
    drop(sock);
}

/// The body sizes that sit on the filler table's edges: its 20-byte period
/// and its 16 KiB span, and a body of 64 such spans.
const EDGE_SIZES: [u64; 9] = [0, 1, 19, 20, 21, 16_383, 16_384, 16_385, 1 << 20];

/// A site whose root HTML hints one synthetic resource per edge size at
/// tier 0, so the root pushes every one of them under `AllLocal`.
fn edge_site(push: PushPolicy) -> (WireSite, Vec<Url>) {
    let mut store = ReplayStore::new();
    let root = Url::https("edge.example", "/");
    store.record(
        root.clone(),
        RecordedResponse::with_body(ResourceKind::Html, "<html></html>"),
    );
    let mut urls = vec![root.clone()];
    let mut hints = Vec::new();
    for size in EDGE_SIZES {
        let url = Url::https("edge.example", format!("/body-{size}.bin"));
        store.record(
            url.clone(),
            RecordedResponse::synthetic(ResourceKind::Other, size),
        );
        hints.push(Hint {
            url: store.urls_mut().intern(url.clone()),
            tier: 0,
            size_hint: size,
        });
        urls.push(url);
    }
    let root_id = store.urls_mut().intern(root);
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(BTreeMap::from([(root_id, hints)])),
        push,
        domain: "edge.example".into(),
        faults: Default::default(),
    };
    (site, urls)
}

#[test]
fn synthetic_bodies_arrive_byte_equal_requested_and_pushed() {
    let (site, urls) = edge_site(PushPolicy::AllLocal);
    let store = Arc::clone(&site.store);
    let server = WireServer::start(site).expect("bind");
    let want = |url: &Url| store.lookup(url).map(RecordedResponse::body_bytes);
    // The recorded bytes built without the store's filler table.
    let filler = |len: usize| -> Vec<u8> {
        b"vroom-replay-filler."
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()
    };

    // Pushed: the root's response promises every edge body.
    let mut client = WireClient::connect(server.addr()).expect("connect");
    client.fetch(&urls[0]).expect("request root");
    let pushed = client.run(Duration::from_secs(10)).expect("io");
    assert_eq!(pushed.len(), urls.len(), "the root and every push");
    // Requested: each edge body by its own GET, on the same connection.
    for url in &urls[1..] {
        client.fetch(url).expect("request");
    }
    let requested = client.run(Duration::from_secs(10)).expect("io");
    assert_eq!(requested.len(), urls.len() - 1);
    assert_eq!(client.resets_seen(), 0);

    for (got, how) in [(&pushed, true), (&requested, false)] {
        for r in got.iter().filter(|r| r.url != urls[0]) {
            assert_eq!(r.pushed, how, "{}", r.url);
            assert_eq!(r.response.status, 200);
            assert_eq!(
                want(&r.url).as_deref(),
                Some(r.body.as_slice()),
                "{}",
                r.url
            );
            assert_eq!(r.body, filler(r.body.len()), "{}", r.url);
        }
    }
    let sizes: BTreeSet<u64> = requested.iter().map(|r| r.body.len() as u64).collect();
    assert_eq!(sizes, EDGE_SIZES.into_iter().collect(), "every size served");
    server.stop();
}

#[test]
fn synthetic_bodies_resume_byte_equal_at_any_credit_offset() {
    // A default-window peer takes the edge bodies in 64 KiB of connection
    // credit at a time, so framing stops and resumes at offsets that fall
    // anywhere in the filler's period.
    let (site, urls) = edge_site(PushPolicy::None);
    let store = Arc::clone(&site.store);
    let server = WireServer::start(site).expect("bind");
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    let mut conn = Connection::client(Settings::default());
    let mut bodies: BTreeMap<u32, (Url, Vec<u8>)> = BTreeMap::new();
    for url in &urls[1..] {
        let req = Request::get(url.host.as_str(), url.path.as_str());
        let sid = conn.send_request(&req, true).expect("request");
        bodies.insert(sid, (url.clone(), Vec::new()));
    }
    let mut open: BTreeSet<u32> = bodies.keys().copied().collect();
    pump_until(&mut sock, &mut conn, |ev| {
        match ev {
            Event::Headers {
                stream_id,
                end_stream: true,
                ..
            } => {
                open.remove(stream_id);
            }
            Event::Data {
                stream_id,
                data,
                end_stream,
            } => {
                if let Some((_, body)) = bodies.get_mut(stream_id) {
                    body.extend_from_slice(data);
                }
                if *end_stream {
                    open.remove(stream_id);
                }
            }
            Event::StreamReset { stream_id, .. } => panic!("stream {stream_id} was reset"),
            _ => {}
        }
        open.is_empty()
    });
    for (url, body) in bodies.values() {
        let want = store.lookup(url).map(RecordedResponse::body_bytes);
        assert_eq!(want.as_deref(), Some(body.as_slice()), "{url}");
    }
    server.stop();
}

#[test]
fn the_stream_past_the_server_limit_is_refused_and_the_rest_answered() {
    // The requests leave their half of each stream open, so every answered
    // stream stays open on the server however its reads split the bytes:
    // the stream one past the advertised limit is refused, and no other.
    let limit = Settings::vroom_server()
        .max_concurrent_streams
        .expect("the server advertises a limit") as usize;
    let mut store = ReplayStore::new();
    let urls: Vec<Url> = (0..=limit)
        .map(|i| Url::https("busy.example", format!("/r{i}.js")))
        .collect();
    for url in &urls {
        store.record(
            url.clone(),
            RecordedResponse::synthetic(ResourceKind::Js, 100),
        );
    }
    let site = WireSite {
        store: Arc::new(store),
        hints: Arc::new(BTreeMap::new()),
        push: PushPolicy::None,
        domain: "busy.example".into(),
        faults: Default::default(),
    };
    let server = WireServer::start(site).expect("bind");
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    let mut conn = Connection::client(Settings::vroom_client());
    let sids: Vec<u32> = urls
        .iter()
        .map(|u| {
            let req = Request::get(u.host.as_str(), u.path.as_str());
            conn.send_request(&req, false).expect("request")
        })
        .collect();
    let (&refused, answered) = sids.split_last().expect("streams");
    let mut done: BTreeSet<u32> = BTreeSet::new();
    let mut resets = Vec::new();
    let mut peer_limit = None;
    let events = pump_until(&mut sock, &mut conn, |ev| {
        match ev {
            Event::PeerSettings(s) => peer_limit = s.max_concurrent_streams,
            Event::Data {
                stream_id,
                end_stream: true,
                ..
            } => {
                done.insert(*stream_id);
            }
            Event::StreamReset { stream_id, code } => resets.push((*stream_id, *code)),
            _ => {}
        }
        done.len() == answered.len() && !resets.is_empty()
    });
    assert_eq!(peer_limit, Some(limit as u32), "the server advertises it");
    assert_eq!(resets, vec![(refused, ErrorCode::RefusedStream)]);
    assert_eq!(done, answered.iter().copied().collect());
    assert!(!events
        .iter()
        .any(|e| matches!(e, Event::Headers { stream_id, .. } if *stream_id == refused)));
    server.stop();
}
