//! A real Vroom-compliant HTTP/2 server (and a matching client) over TCP,
//! built on the from-scratch `vroom-http2` stack.
//!
//! This is the reproduction's equivalent of the paper's
//! Apache-behind-nghttpx replay rig (§5): it serves a recorded corpus
//! ([`ReplayStore`]), attaches dependency hints as `Link` /
//! `x-semi-important` / `x-unimportant` headers, and pushes high-priority
//! local dependencies with PUSH_PROMISE. Used by the wire integration tests
//! and the `wire_demo` example; the performance experiments use the
//! discrete-event engine instead (timing on localhost is meaningless).

use crate::hints::attach_hints;
use crate::push_policy::{select_pushes, PushPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vroom_browser::config::Hint;
use vroom_html::Url;
use vroom_http2::{Connection, ConnectionError, ErrorCode, Event, Request, Response, Settings};
use vroom_intern::UrlId;
use vroom_net::{RecordedResponse, ReplayStore, RetryBudget};

/// Injectable wall clock for the wire path's timeout logic.
///
/// The real-wire server genuinely measures socket idle time and how long
/// a stream has waited for flow-control credit, but routing
/// every read through this trait keeps the workspace's wall-clock ban
/// auditable: exactly one implementation touches `Instant`, and tests can
/// substitute a fake clock to exercise timeouts without sleeping.
pub trait WireClock: Send + Sync {
    /// Monotonic time elapsed since an arbitrary fixed epoch.
    fn elapsed(&self) -> Duration;
}

/// The default clock: the process monotonic clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl WireClock for MonotonicClock {
    fn elapsed(&self) -> Duration {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        // vroom-lint: allow(sim-purity) -- sole sanctioned wall-clock read: real-wire timeouts measure actual socket idle time; simulation code never calls this
        START.get_or_init(Instant::now).elapsed()
    }
}

/// Wire-level fault injection: URLs whose *first* serve is truncated
/// mid-body and aborted with RST_STREAM(INTERNAL_ERROR). The spent-fault
/// set is shared across connection threads, so a retry — on the same
/// connection or a fresh one — sees a healthy serve.
#[derive(Clone, Default)]
pub struct WireFaults {
    truncate_once: Arc<Mutex<BTreeSet<Url>>>,
}

impl WireFaults {
    /// Truncate the first serve of each given URL.
    pub fn truncate_once(urls: impl IntoIterator<Item = Url>) -> WireFaults {
        WireFaults {
            truncate_once: Arc::new(Mutex::new(urls.into_iter().collect())),
        }
    }

    /// Consume the fault for `url`; true exactly once per configured URL.
    fn take(&self, url: &Url) -> bool {
        // A poisoned lock means another serve thread panicked; the set of
        // pending faults is still coherent (it holds no invariants beyond
        // membership), so keep serving rather than poisoning this thread.
        // The guard's critical section is exactly the `remove` — it drops
        // before the serve decision that consumes the answer, so a fault
        // check never stalls another connection's serve.
        let mut pending = self.truncate_once.lock().unwrap_or_else(|e| e.into_inner());
        let hit = pending.remove(url);
        drop(pending);
        hit
    }
}

/// Everything one wire server needs to serve a site.
#[derive(Clone)]
pub struct WireSite {
    /// Recorded responses by URL. Its intern table is the namespace every
    /// [`UrlId`] in `hints` resolves against.
    pub store: Arc<ReplayStore>,
    /// Dependency hints per HTML URL, keyed by the store's interned ids.
    pub hints: Arc<BTreeMap<UrlId, Vec<Hint>>>,
    /// Push policy applied to HTML responses.
    pub push: PushPolicy,
    /// The logical domain this server answers for (requests carry it in
    /// `:authority` even though the socket is loopback).
    pub domain: String,
    /// Injected wire faults (default: none).
    pub faults: WireFaults,
}

/// A running wire server; drop or [`stop`](WireServer::stop) to shut down.
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WireServer {
    /// Bind a loopback port and serve `site` until stopped, timing idleness
    /// with the process monotonic clock.
    pub fn start(site: WireSite) -> std::io::Result<WireServer> {
        WireServer::start_with_clock(site, Arc::new(MonotonicClock))
    }

    /// Bind a loopback port and serve `site` until stopped, timing idleness
    /// and blocked streams with an injected clock.
    pub fn start_with_clock(
        site: WireSite,
        clock: Arc<dyn WireClock>,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            // Blocks in accept; shutdown wakes it with a self-connect.
            for stream in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else {
                    break;
                };
                let site = site.clone();
                let flag = flag.clone();
                let clock = clock.clone();
                workers.push(std::thread::spawn(move || {
                    let _ = serve_connection(stream, site, flag, clock);
                }));
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(WireServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, then join the accept loop and every connection
    /// thread. Dropping the server does the same.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the blocked accept. A failed connect means the accept loop
        // has already exited, or that its backlog is full and its next
        // accept returns at once; either way the join below returns.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A body still waiting for flow-control credit on a stream: which
/// recording, and how far into its body framing has got. The rest is
/// framed from the recording itself, so a blocked stream holds no bytes.
struct PendingBody {
    url: UrlId,
    offset: usize,
    /// When the stream's credit last fell to zero; `None` while it has
    /// credit.
    blocked_since: Option<Duration>,
}

/// Frame `record`'s body on stream `id` from byte `offset` to byte `end`,
/// as far as flow-control credit allows: each DATA frame is copied once,
/// from a borrowed view of the recording into the connection's output.
/// END_STREAM rides on the body's last byte. Returns the offset reached.
fn send_body(
    conn: &mut Connection,
    id: u32,
    record: &RecordedResponse,
    offset: usize,
    end: usize,
) -> Result<usize, ConnectionError> {
    let mut at = offset;
    for piece in record.body_pieces(offset, end) {
        let last = at + piece.len() == record.body_len();
        let sent = conn.send_data(id, piece, last)?;
        at += sent;
        if sent < piece.len() {
            break;
        }
    }
    Ok(at)
}

fn serve_connection(
    mut stream: TcpStream,
    site: WireSite,
    shutdown: Arc<AtomicBool>,
    clock: Arc<dyn WireClock>,
) -> std::io::Result<()> {
    let poll = Duration::from_millis(20);
    stream.set_read_timeout(Some(poll))?;
    // Writes time out like reads, so a peer that stops reading holds
    // neither this loop nor the join in `WireServer::stop`.
    stream.set_write_timeout(Some(poll))?;
    stream.set_nodelay(true)?;
    let timed_out = |e: &std::io::Error| {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    };
    let mut conn = Connection::server(Settings::vroom_server());
    let retry = RetryBudget::standard();
    let mut pending: BTreeMap<u32, PendingBody> = BTreeMap::new();
    // Output the socket has not taken yet (`unsent` from `written` on); it
    // goes out before newer frames.
    let mut unsent = conn.take_output();
    let mut written = 0;
    let mut buf = [0u8; 16 * 1024];
    let idle_limit = Duration::from_secs(10);
    let mut last_activity = clock.elapsed();

    'serve: loop {
        if shutdown.load(Ordering::Relaxed)
            || clock.elapsed().saturating_sub(last_activity) > idle_limit
        {
            conn.goaway(ErrorCode::NoError, "server shutting down");
            break;
        }
        // Flush output until the socket stops taking it.
        if written == unsent.len() {
            let spent = std::mem::replace(&mut unsent, conn.take_output());
            conn.recycle_output(spent);
            written = 0;
        }
        while let Some(rest) = unsent.get(written..).filter(|r| !r.is_empty()) {
            match stream.write(rest) {
                Ok(0) => return Ok(()), // peer closed
                Ok(n) => {
                    written += n;
                    last_activity = clock.elapsed();
                }
                Err(ref e) if timed_out(e) => break,
                Err(e) => return Err(e),
            }
        }
        // Read what's available.
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                last_activity = clock.elapsed();
                if conn.recv(buf.get(..n).unwrap_or_default()).is_err() {
                    break;
                }
            }
            Err(ref e) if timed_out(e) => {}
            Err(e) => return Err(e),
        }
        // Handle protocol events.
        while let Some(ev) = conn.poll_event() {
            match ev {
                Event::Headers {
                    stream_id, fields, ..
                } => {
                    if let Ok(req) = Request::from_fields(&fields) {
                        handle_request(&mut conn, &site, stream_id, &req, &mut pending);
                    } else {
                        conn.reset_stream(stream_id, ErrorCode::ProtocolError);
                    }
                }
                Event::StreamReset { stream_id, .. } => {
                    pending.remove(&stream_id);
                }
                Event::Goaway { .. } => break 'serve,
                _ => {}
            }
        }
        // Send pending bodies on credit, as far as the stream and connection
        // windows allow. A stream is blocked only while its credit is zero;
        // one blocked for longer than the connection budget's timeout is
        // reset, so a peer that never opens its window cannot pin a body
        // here forever.
        let now = clock.elapsed();
        let RetryBudget { timeout, .. } = retry;
        let blocked_limit = Duration::from_nanos(timeout.as_nanos());
        pending.retain(|&id, body| {
            if conn.send_capacity(id) == 0 {
                let since = *body.blocked_since.get_or_insert(now);
                if now.saturating_sub(since) <= blocked_limit {
                    return true;
                }
                conn.reset_stream(id, ErrorCode::FlowControlError);
                return false;
            }
            body.blocked_since = None;
            let Some(record) = site.store.lookup_id(body.url) else {
                return false;
            };
            match send_body(&mut conn, id, record, body.offset, record.body_len()) {
                Ok(at) => {
                    body.offset = at;
                    at < record.body_len()
                }
                Err(_) => false,
            }
        });
    }
    // Best effort on the way out: the untaken output, then the final
    // frames (a GOAWAY).
    if stream
        .write_all(unsent.get(written..).unwrap_or_default())
        .is_ok()
    {
        let _ = stream.write_all(&conn.take_output());
    }
    Ok(())
}

fn handle_request(
    conn: &mut Connection,
    site: &WireSite,
    stream_id: u32,
    req: &Request,
    pending: &mut BTreeMap<u32, PendingBody>,
) {
    let url = Url::https(&*req.authority, &*req.path);
    let Some((uid, record)) = site
        .store
        .id_of(&url)
        .and_then(|id| Some((id, site.store.lookup_id(id)?)))
    else {
        let resp = Response::with_status(404);
        let _ = conn.send_response(stream_id, &resp, true);
        return;
    };
    let urls = site.store.urls();

    let hints = site.hints.get(&uid).map(Vec::as_slice).unwrap_or_default();
    // Push first (PUSH_PROMISE must precede the response data referencing
    // the pushed resources).
    let mut pushed_streams: Vec<(u32, UrlId)> = Vec::new();
    if !hints.is_empty() {
        for push in select_pushes(site.push, &site.domain, hints, urls) {
            if site.store.lookup_id(push.url).is_none() {
                continue;
            }
            let Some(purl) = urls.url(push.url) else {
                continue;
            };
            let preq = Request::get(purl.host.as_str(), purl.path.as_str());
            if let Ok(pid) = conn.push_promise(stream_id, &preq) {
                pushed_streams.push((pid, push.url));
            }
        }
    }

    // The main response, hint headers attached.
    let mut resp = Response::ok().with_header("content-type", content_type(record.kind));
    if !hints.is_empty() {
        resp = attach_hints(resp, hints, urls);
    }
    let len = record.body_len();
    if len > 0 && site.faults.take(&url) {
        // Injected truncation: serve a prefix of the body, leave the
        // stream open, then abort it — the client sees partial DATA
        // followed by a well-formed RST_STREAM.
        if conn.send_response(stream_id, &resp, false).is_ok() {
            let _ = send_body(conn, stream_id, record, 0, len / 2);
        }
        conn.reset_stream(stream_id, ErrorCode::InternalError);
        return;
    }
    respond(conn, stream_id, &resp, uid, record, pending);

    // Pushed response bodies follow.
    for (pid, puid) in pushed_streams {
        let Some(rec) = site.store.lookup_id(puid) else {
            continue;
        };
        let presp = Response::ok().with_header("content-type", content_type(rec.kind));
        respond(conn, pid, &presp, puid, rec, pending);
    }
}

/// Send `resp` on stream `id`, then as much of `record`'s body as credit
/// allows; the rest waits in `pending` as `(url, offset)`.
fn respond(
    conn: &mut Connection,
    id: u32,
    resp: &Response,
    url: UrlId,
    record: &RecordedResponse,
    pending: &mut BTreeMap<u32, PendingBody>,
) {
    let len = record.body_len();
    if conn.send_response(id, resp, len == 0).is_err() || len == 0 {
        return;
    }
    if let Ok(sent) = send_body(conn, id, record, 0, len) {
        if sent < len {
            let body = PendingBody {
                url,
                offset: sent,
                blocked_since: None,
            };
            pending.insert(id, body);
        }
    }
}

fn content_type(kind: vroom_html::ResourceKind) -> &'static str {
    use vroom_html::ResourceKind::*;
    match kind {
        Html => "text/html; charset=utf-8",
        Css => "text/css",
        Js => "application/javascript",
        Image => "image/jpeg",
        Font => "font/woff2",
        Media => "video/mp4",
        Xhr => "application/json",
        Other => "application/octet-stream",
    }
}

/// One fetched exchange as seen by the wire client.
#[derive(Debug)]
pub struct FetchedResponse {
    /// Decoded response headers.
    pub response: Response,
    /// Full body.
    pub body: Vec<u8>,
    /// Whether it arrived via server push.
    pub pushed: bool,
    /// The request URL.
    pub url: Url,
}

struct StreamAcc {
    response: Option<Response>,
    body: Vec<u8>,
    done: bool,
    pushed: bool,
    url: Option<Url>,
}

/// Bytes the wire client asks the socket for per read: four
/// default-size DATA frames, so a staged page's bodies arrive in few reads.
const CLIENT_READ_SIZE: usize = 64 * 1024;

/// A blocking HTTP/2 client for the wire server.
pub struct WireClient {
    stream: TcpStream,
    conn: Connection,
    /// Socket reads land here; the connection decodes frames from it in
    /// place. One allocation per client, reused by every read.
    read_buf: Box<[u8]>,
    streams: BTreeMap<u32, StreamAcc>,
    clock: Arc<dyn WireClock>,
    /// Per-request retry policy applied when a stream is reset.
    retry: RetryBudget,
    /// GET attempts per URL, counted against the budget.
    attempts: BTreeMap<Url, u32>,
    /// Backed-off re-fetches waiting for their fire time.
    retry_queue: Vec<(Duration, Url)>,
    resets_seen: usize,
}

impl WireClient {
    /// Connect to a wire server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            conn: Connection::client(Settings::vroom_client()),
            read_buf: vec![0; CLIENT_READ_SIZE].into_boxed_slice(),
            streams: BTreeMap::new(),
            clock: Arc::new(MonotonicClock),
            retry: RetryBudget::standard(),
            attempts: BTreeMap::new(),
            retry_queue: Vec::new(),
            resets_seen: 0,
        })
    }

    /// Replace the retry budget.
    pub fn with_retry(mut self, retry: RetryBudget) -> Self {
        self.retry = retry;
        self
    }

    /// RST_STREAM frames received so far.
    pub fn resets_seen(&self) -> usize {
        self.resets_seen
    }

    /// Issue a GET; returns the stream id. (Named `fetch`, not `get`, so the
    /// allocation analyzer's name-based call resolution does not conflate it
    /// with container `get` calls on the server hot path.)
    pub fn fetch(&mut self, url: &Url) -> std::io::Result<u32> {
        let req = Request::get(url.host.clone(), url.path.clone());
        let sid = self
            .conn
            .send_request(&req, true)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        *self.attempts.entry(url.clone()).or_insert(0) += 1;
        self.streams.insert(
            sid,
            StreamAcc {
                response: None,
                body: Vec::new(),
                done: false,
                pushed: false,
                url: Some(url.clone()),
            },
        );
        self.flush()?;
        Ok(sid)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let out = self.conn.take_output();
        if !out.is_empty() {
            self.stream.write_all(&out)?;
        }
        self.conn.recycle_output(out);
        Ok(())
    }

    /// Drive IO until every open stream completes or the deadline passes.
    /// Returns all completed exchanges (requested and pushed).
    pub fn run(&mut self, deadline: Duration) -> std::io::Result<Vec<FetchedResponse>> {
        let start = self.clock.elapsed();
        while self.clock.elapsed().saturating_sub(start) < deadline {
            // Issue any backed-off retries that have come due. The budget
            // was already charged when the retry was queued.
            let now = self.clock.elapsed();
            let due: Vec<Url> = {
                let (fire, wait): (Vec<_>, Vec<_>) =
                    self.retry_queue.drain(..).partition(|(at, _)| *at <= now);
                self.retry_queue = wait;
                fire.into_iter().map(|(_, url)| url).collect()
            };
            for url in due {
                let _ = self.fetch(&url)?;
            }
            self.flush()?;
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => break,
                Ok(n) => {
                    if self
                        .conn
                        .recv(self.read_buf.get(..n).unwrap_or_default())
                        .is_err()
                    {
                        break;
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
            while let Some(ev) = self.conn.poll_event() {
                match ev {
                    Event::Headers {
                        stream_id,
                        fields,
                        end_stream,
                    } => {
                        if let Ok(resp) = Response::from_fields(&fields) {
                            let acc = self.streams.entry(stream_id).or_insert(StreamAcc {
                                response: None,
                                body: Vec::new(),
                                done: false,
                                pushed: true,
                                url: None,
                            });
                            acc.response = Some(resp);
                            if end_stream {
                                acc.done = true;
                            }
                        }
                    }
                    Event::Data {
                        stream_id,
                        data,
                        end_stream,
                    } => {
                        if let Some(acc) = self.streams.get_mut(&stream_id) {
                            // Moving the first payload in saves copying it.
                            if acc.body.is_empty() {
                                acc.body = data;
                            } else {
                                acc.body.extend_from_slice(&data);
                            }
                            if end_stream {
                                acc.done = true;
                            }
                        }
                    }
                    Event::PushPromise {
                        promised_stream_id,
                        fields,
                        ..
                    } => {
                        let url = Request::from_fields(&fields)
                            .ok()
                            .map(|r| Url::https(&*r.authority, &*r.path));
                        self.streams.insert(
                            promised_stream_id,
                            StreamAcc {
                                response: None,
                                body: Vec::new(),
                                done: false,
                                pushed: true,
                                url,
                            },
                        );
                    }
                    Event::StreamReset { stream_id, .. } => {
                        self.resets_seen += 1;
                        // Recovery: re-fetch the dead stream's URL with
                        // capped exponential backoff while the budget
                        // allows. A reset push degrades to a plain client
                        // fetch the same way.
                        if let Some(acc) = self.streams.remove(&stream_id) {
                            if let Some(url) = acc.url {
                                let attempts = self.attempts.get(&url).copied().unwrap_or(1);
                                if self.retry.allows(attempts) {
                                    let at = self.clock.elapsed()
                                        + self.retry.backoff_std(attempts.max(1));
                                    self.retry_queue.push((at, url));
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            if self.retry_queue.is_empty()
                && !self.streams.is_empty()
                && self.streams.values().all(|s| s.done)
            {
                break;
            }
        }
        let mut out = Vec::new();
        let done_ids: Vec<u32> = self
            .streams
            .iter()
            .filter(|(_, s)| s.done && s.response.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in done_ids {
            let Some(acc) = self.streams.remove(&id) else {
                continue;
            };
            let Some(response) = acc.response else {
                continue;
            };
            out.push(FetchedResponse {
                response,
                body: acc.body,
                pushed: acc.pushed,
                url: acc.url.unwrap_or_else(|| Url::https("unknown", "/")),
            });
        }
        Ok(out)
    }
}
