//! The transport under the browser engine: domains and connections, the
//! HTTP/1.1 pool, ordered vs multiplexed serving with TCP slow start, the
//! shared access link, and the faults that cut responses short. The browser
//! asks it to [`fetch`](Transport::fetch) or [`abort`](Transport::abort) a
//! target and hears back from [`handle`](Transport::handle) (DESIGN §2r).
//!
//! Each fact is stored once: a response waiting on an ordered connection
//! sits in that connection's queue, a started one is a [`Flight`] on the
//! link and nowhere else, and a connection's [`ConnState`] alone says
//! whether it may start the next response.

use crate::config::{Hint, HttpVersion, LoadConfig};
use crate::engine::Ev;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vroom_intern::UrlId;
use vroom_net::link::{SharedLink, TransferId};
use vroom_net::profiles::NetworkProfile;
use vroom_pages::{Page, ResourceId};
use vroom_sim::{EventQueue, SimDuration, SimTime};

#[cfg(test)]
use crate::transport_tests::Trace;

/// The engine's event queue, which the transport schedules its events on.
type Queue = EventQueue<Ev>;

/// What a fetch is for. Two machine words and `Copy`: waste targets carry
/// an interned [`UrlId`] (resolved against `cfg.urls`), not an owned URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Target {
    /// A real page resource.
    Real(ResourceId),
    /// A false-positive hint/push: bytes downloaded and discarded.
    Waste { url: UrlId, size: u64 },
}

/// One request as the transport carries it: the target, and which of the
/// browser's attempts at it this is (fault plans truncate per attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Req {
    pub(crate) target: Target,
    pub(crate) attempt: u32,
}

/// One incarnation of one connection: the domain's dense index into
/// `Transport::domains`, the connection's index within it, and its epoch
/// (bumped each time an injected drop resets the socket). Events carry it
/// so those addressed to a dead incarnation are discarded instead of
/// corrupting its replacement; on fault-free loads every epoch is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Addr {
    dom: u32,
    conn: u32,
    epoch: u32,
}

/// The transport's events.
#[derive(Debug)]
pub(crate) enum NetEv {
    /// A connection finished its handshake.
    ConnReady(Addr),
    /// A request reached the server.
    ServerArrival(Addr, Req),
    /// The shared link predicts its next transfer completion here.
    LinkTick,
    /// Response headers reached the client (hints become visible).
    HeadersArrive(Target),
    /// A response's last byte reached the client.
    ResponseDelivered(Target),
    /// A response died mid-body: the server sent a well-formed RST_STREAM
    /// after a truncated payload, and the client just noticed.
    ResponseFailed(Target),
    /// An injected fault kills a connection (GOAWAY semantics): every
    /// stream it carried is lost; the client reconnects and retries.
    ConnDropped(Addr),
    /// An ordered connection finished its slow-start tail and can carry
    /// the next response.
    ConnFree(Addr),
}

/// What the browser hears from one transport event.
pub(crate) enum Heard<'a> {
    /// Nothing for the browser.
    Nothing,
    /// Response headers arrived carrying these hints.
    Hints(&'a [Hint]),
    /// A response's last byte arrived.
    Delivered(Target),
    /// A request or response died: a truncated body, or a request that
    /// reached a connection torn down behind it.
    Failed(Target),
    /// The server took a request on this connection and promises these
    /// same-domain pushes behind its response (often none): the one step
    /// that needs client state calls back across the seam. The browser
    /// claims the pushes it wants with [`Transport::push`], then calls
    /// [`Transport::finish`] to start the connection's next response.
    Promised(&'a [Hint], Addr),
    /// This connection dropped, losing these streams. The browser hears
    /// each as failed, then calls [`Transport::finish`] to reconnect.
    Dropped(Vec<Target>, Addr),
}

/// TCP initial congestion window (10 MSS, RFC 6928).
const INITIAL_CWND: f64 = 14_600.0;

/// HTTP/1.1 browser connection pool size per domain.
const H1_CONNS_PER_DOMAIN: usize = 6;

/// Where a connection is in its life. Only two things return a `Sending`
/// connection to `Idle`: its own `ConnFree` event, or cancelling the flight
/// it has on the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Handshaking: fresh, or reconnecting after a drop.
    Connecting,
    /// Ready. Under multiplexed serving a connection stays here.
    Idle,
    /// HTTP/1.1: the connection's one request is out, its response not yet
    /// started.
    Requested,
    /// Ordered serving: a response is on the link, or in the slow-start
    /// tail after it.
    Sending,
}

struct Conn {
    state: ConnState,
    /// Ordered serving: responses the server holds for this connection, in
    /// request order, not yet started.
    queue: VecDeque<Req>,
    /// Slow-start state: bytes deliverable in one round trip. Doubles as the
    /// connection warms; fresh connections pay extra round trips on large
    /// responses — the classic HTTP/1.1 tax that HTTP/2's single long-lived
    /// connection amortizes away.
    cwnd: f64,
    epoch: u32,
}

impl Conn {
    fn new() -> Conn {
        Conn {
            state: ConnState::Connecting,
            queue: VecDeque::new(),
            cwnd: INITIAL_CWND,
            epoch: 0,
        }
    }

    /// Extra delivery delay for a response of `size` bytes, and warm the
    /// window. Each doubling of the window costs one round trip.
    fn slow_start_penalty(&mut self, size: u64, rtt: SimDuration) -> SimDuration {
        let mut rounds = 0u32;
        while self.cwnd < size as f64 && rounds < 16 {
            self.cwnd *= 2.0;
            rounds += 1;
        }
        // Window also grows from simply carrying traffic.
        self.cwnd = (self.cwnd + size as f64 / 2.0).min(4_000_000.0);
        rtt * rounds as u64
    }
}

struct Domain {
    /// The domain's host name — kept here so events and flights can carry
    /// the dense index and resolve the name only when latency/fault models
    /// need it.
    name: Arc<str>,
    conns: Vec<Conn>,
    /// Requests waiting for a connection (H1) or for handshake (H2).
    pending: VecDeque<Req>,
}

/// One response on the shared link.
#[derive(Debug)]
struct Flight {
    via: Addr,
    req: Req,
    /// Slow-start tail added to the delivery.
    penalty: SimDuration,
    /// Injected fault: the body stops early and the stream is reset.
    truncated: bool,
}

/// The transport's reusable buffers, kept in the engine's scratch between
/// loads.
#[derive(Default)]
pub(crate) struct Buffers {
    res_uid: Vec<Option<UrlId>>,
    res_domains: Vec<Arc<str>>,
    link: Option<SharedLink>,
    #[cfg(test)]
    pub(crate) ledger: Vec<Trace>,
}

pub(crate) struct Transport<'a> {
    page: &'a Page,
    cfg: &'a LoadConfig,
    profile: &'a NetworkProfile,
    /// Whether each connection returns complete responses in request order
    /// (HTTP/1.1, or Vroom's modified server) rather than multiplexing
    /// them. Fixed for the whole load.
    ordered: bool,
    /// Whether the configured fault plan can inject anything; caches
    /// `cfg.fault.is_active()` so the fault-free fast path stays cheap.
    pub(crate) fault_active: bool,
    /// Interned id of each resource's URL in `cfg.urls` (`None` when the
    /// config never interned it — baselines with no hints or pushes).
    pub(crate) res_uid: Vec<Option<UrlId>>,
    /// Each resource's host, deduplicated at construction so domain keys
    /// and connection events are refcount bumps, never string copies.
    res_domains: Vec<Arc<str>>,
    /// Domains in first-contact order; events address them by index.
    domains: Vec<Domain>,
    /// Host name → index into `domains`. Touched once per *request*; the
    /// per-*event* paths go straight through the index.
    domain_index: BTreeMap<Arc<str>, usize>,
    link: SharedLink,
    link_tick_at: Option<SimTime>,
    /// Responses on the link, sorted by transfer id. `TransferId`s are
    /// handed out monotonically by the link, so insertion is a push and
    /// lookup a binary search.
    flights: Vec<(TransferId, Flight)>,
    /// Requests taken and not yet delivered, failed or aborted.
    pub(crate) outstanding: usize,
    /// Streams reset: truncated bodies and aborts.
    pub(crate) rst_streams: usize,
    /// Connections dropped.
    pub(crate) goaways: usize,
    /// What this load's transport did, for the invariant tests.
    #[cfg(test)]
    ledger: Vec<Trace>,
}

impl<'a> Transport<'a> {
    /// A transport whose buffers come from `buffers` (cleared and rebuilt
    /// before use; [`Transport::stash`] returns them).
    pub(crate) fn new_in(
        page: &'a Page,
        profile: &'a NetworkProfile,
        cfg: &'a LoadConfig,
        buffers: &mut Buffers,
    ) -> Self {
        let mut res_uid = std::mem::take(&mut buffers.res_uid);
        res_uid.clear();
        res_uid.extend(page.resources.iter().map(|r| cfg.urls.lookup(&r.url)));
        let mut host_index: BTreeMap<&str, Arc<str>> = BTreeMap::new();
        let mut res_domains = std::mem::take(&mut buffers.res_domains);
        res_domains.clear();
        res_domains.extend(page.resources.iter().map(|r| {
            Arc::clone(
                host_index
                    .entry(r.url.host.as_str())
                    .or_insert_with(|| Arc::from(r.url.host.as_str())),
            )
        }));
        let fault_active = cfg.fault.is_active();
        let mut link = match buffers.link.take() {
            Some(mut l) => {
                l.reset(profile.downlink_bps);
                l
            }
            None => SharedLink::new(profile.downlink_bps),
        };
        if fault_active {
            link.set_capacity_schedule(cfg.fault.capacity_windows());
        }
        Transport {
            page,
            cfg,
            profile,
            ordered: cfg.ordered_responses || cfg.http == HttpVersion::H1,
            fault_active,
            res_uid,
            res_domains,
            domains: Vec::new(),
            domain_index: BTreeMap::new(),
            link,
            link_tick_at: None,
            flights: Vec::new(),
            outstanding: 0,
            rst_streams: 0,
            goaways: 0,
            #[cfg(test)]
            ledger: Vec::new(),
        }
    }

    /// Return the buffers for the next load.
    pub(crate) fn stash(&mut self, buffers: &mut Buffers) {
        buffers.res_uid = std::mem::take(&mut self.res_uid);
        buffers.res_domains = std::mem::take(&mut self.res_domains);
        buffers.link = Some(std::mem::replace(&mut self.link, SharedLink::new(1)));
        #[cfg(test)]
        {
            let open = self.flights.iter().map(|(tid, _)| tid.0);
            self.ledger.push(Trace::Open(open.collect()));
            buffers.ledger = std::mem::take(&mut self.ledger);
        }
    }

    /// Whether a waste fetch for `url` is waiting for a connection, queued
    /// at a server, or on the link. Requests and responses propagating
    /// between those places do not count.
    pub(crate) fn carries_waste(&self, url: UrlId) -> bool {
        let is_it = |r: &Req| matches!(r.target, Target::Waste { url: u, .. } if u == url);
        self.domains.iter().any(|d| {
            d.pending
                .iter()
                .chain(d.conns.iter().flat_map(|c| c.queue.iter()))
                .any(is_it)
        }) || self.flights.iter().any(|(_, f)| is_it(&f.req))
    }

    fn conn(&mut self, a: Addr) -> &mut Conn {
        &mut self.domains[a.dom as usize].conns[a.conn as usize]
    }

    /// The host connection `a` talks to.
    fn host(&self, a: Addr) -> &Arc<str> {
        &self.domains[a.dom as usize].name
    }

    /// The current incarnation of connection `conn` of domain `dom`.
    fn addr(&self, dom: usize, conn: usize) -> Addr {
        let epoch = self.domains[dom].conns[conn].epoch;
        let (dom, conn) = (dom as u32, conn as u32);
        Addr { dom, conn, epoch }
    }

    // -------------------------------------------------------------- requests

    /// The browser requests a target.
    pub(crate) fn fetch(&mut self, q: &mut Queue, now: SimTime, req: Req) {
        #[cfg(test)]
        self.ledger.push(Trace::Requested(req, now));
        let domain = Arc::clone(self.domain_of(&req.target));
        let dom = match self.domain_index.get(&domain) {
            Some(&i) => i,
            None => {
                let i = self.domains.len();
                self.domains.push(Domain {
                    name: Arc::clone(&domain),
                    conns: Vec::new(),
                    pending: VecDeque::new(),
                });
                self.domain_index.insert(Arc::clone(&domain), i);
                i
            }
        };
        // The domain's first connection pays the DNS lookup.
        let ds = &mut self.domains[dom];
        let latency = &self.profile.latency;
        let setup = latency.connection_setup(&domain, !ds.conns.is_empty());
        self.outstanding += 1;

        match self.cfg.http {
            HttpVersion::H2 => {
                // HTTP/2: one connection per domain.
                if ds.conns.is_empty() {
                    ds.conns.push(Conn::new());
                    ds.pending.push_back(req);
                    let a = self.addr(dom, 0);
                    q.schedule(now + setup, Ev::Net(NetEv::ConnReady(a)));
                } else if ds.conns[0].state == ConnState::Connecting {
                    ds.pending.push_back(req);
                } else {
                    self.to_server(q, now, self.addr(dom, 0), req);
                }
            }
            HttpVersion::H1 => {
                ds.pending.push_back(req);
                // Open another connection if all are busy/unready and we
                // have headroom.
                let free = ds.conns.iter().any(|c| c.state == ConnState::Idle);
                if !free && ds.conns.len() < H1_CONNS_PER_DOMAIN {
                    ds.conns.push(Conn::new());
                    let conn = ds.conns.len() - 1;
                    let a = self.addr(dom, conn);
                    q.schedule(now + setup, Ev::Net(NetEv::ConnReady(a)));
                } else if free {
                    self.h1_dispatch(q, now, dom);
                }
            }
        }
    }

    /// The target's domain from the per-resource / per-URL host caches.
    fn domain_of(&self, target: &Target) -> &Arc<str> {
        match target {
            Target::Real(id) => &self.res_domains[*id],
            Target::Waste { url, .. } => self.cfg.urls.host(*url),
        }
    }

    /// Send `req` up connection `a`; it reaches the server one propagation
    /// delay later.
    fn to_server(&self, q: &mut Queue, now: SimTime, a: Addr, req: Req) {
        let ow = self.profile.latency.one_way(self.host(a));
        q.schedule(now + ow, Ev::Net(NetEv::ServerArrival(a, req)));
    }

    /// H1: move pending requests onto idle connections in request order.
    fn h1_dispatch(&mut self, q: &mut Queue, now: SimTime, dom: usize) {
        loop {
            let ds = &mut self.domains[dom];
            let Some(conn) = ds.conns.iter().position(|c| c.state == ConnState::Idle) else {
                return;
            };
            let Some(req) = ds.pending.pop_front() else {
                return;
            };
            ds.conns[conn].state = ConnState::Requested;
            self.to_server(q, now, self.addr(dom, conn), req);
        }
    }

    /// A server push the browser claimed from [`Heard::Promised`], queued
    /// behind the response that promised it.
    pub(crate) fn push(&mut self, q: &mut Queue, now: SimTime, a: Addr, req: Req) {
        #[cfg(test)]
        self.ledger.push(Trace::Requested(req, now));
        debug_assert_eq!(
            self.domain_of(&req.target),
            self.host(a),
            "push must be same-domain"
        );
        self.outstanding += 1;
        self.enqueue_response(q, now, a, req);
    }

    /// The second half of an event whose first half the browser heard:
    /// reconnect a dropped connection, or start a live one's next response.
    pub(crate) fn finish(&mut self, q: &mut Queue, now: SimTime, a: Addr) {
        if self.conn(a).state != ConnState::Connecting {
            return self.start_next_response(q, now, a);
        }
        // DNS is warm, only transport setup is paid again.
        let name = self.host(a);
        let setup = self.profile.latency.connection_setup(name, true);
        let a = self.addr(a.dom as usize, a.conn as usize);
        q.schedule(now + setup, Ev::Net(NetEv::ConnReady(a)));
        self.reschedule_link_tick(q, now);
    }

    /// Per-request timeout: reset the stream of `id`'s current attempt if
    /// it is somewhere a reset reaches (waiting for a connection, queued at
    /// a server, or on the link). Returns whether it was; a request or
    /// response propagating between those places is not.
    pub(crate) fn abort(&mut self, q: &mut Queue, now: SimTime, id: ResourceId) -> bool {
        // Credit link progress first: a response that finished by now is
        // delivered, not aborted.
        let completed = self.link.advance(now);
        self.on_link_completions(q, now, completed);
        let is_me = |r: &Req| r.target == Target::Real(id);
        let found = 'search: {
            for ds in &mut self.domains {
                // Waiting for a connection (H1 pool / H2 handshake), or
                // queued behind an ordered connection's earlier responses.
                let queues = std::iter::once(&mut ds.pending);
                for queue in queues.chain(ds.conns.iter_mut().map(|c| &mut c.queue)) {
                    if let Some(pos) = queue.iter().position(is_me) {
                        queue.remove(pos);
                        break 'search true;
                    }
                }
            }
            // On the link: cancel its stream. An ordered connection is free
            // for the next response at once: the client's RST releases it.
            let Some(pos) = self.flights.iter().position(|(_, f)| is_me(&f.req)) else {
                break 'search false;
            };
            let (tid, flight) = self.flights.remove(pos);
            self.cancel(tid);
            if self.ordered {
                self.free_conn(q, now, flight.via);
            }
            self.reschedule_link_tick(q, now);
            true
        };
        if found {
            self.rst_streams += 1;
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        found
    }

    // ------------------------------------------------------------- responses

    /// The server has `req`'s response ready on `a`. Ordered serving queues
    /// it behind the connection's earlier responses (the caller then starts
    /// the head); multiplexed serving — stock HTTP/2 — puts it on the link
    /// at once as a transfer of its own.
    fn enqueue_response(&mut self, q: &mut Queue, now: SimTime, a: Addr, req: Req) {
        if self.ordered {
            self.conn(a).queue.push_back(req);
        } else {
            self.start_response(q, now, a, req);
        }
    }

    /// Ordered serving: put the connection's queue head on the link unless
    /// a response is already sending.
    fn start_next_response(&mut self, q: &mut Queue, now: SimTime, a: Addr) {
        let c = self.conn(a);
        if c.state == ConnState::Sending {
            return;
        }
        let Some(req) = c.queue.pop_front() else {
            return;
        };
        c.state = ConnState::Sending;
        self.start_response(q, now, a, req);
    }

    /// Start `req`'s response on the link: injected truncation, the
    /// connection's slow-start tail, and the header hints one propagation
    /// delay later.
    fn start_response(&mut self, q: &mut Queue, now: SimTime, a: Addr, req: Req) {
        let (size, truncated) = self.faulted_size(&req);
        let rtt = self.profile.latency.rtt(self.host(a));
        let penalty = self.conn(a).slow_start_penalty(size, rtt);
        let (tid, completed) = self.link.start(now, size);
        #[cfg(test)]
        self.ledger.push(Trace::Sent(tid.0, a, req, size, now));
        let flight = Flight {
            via: a,
            req,
            penalty,
            truncated,
        };
        self.flights.push((tid, flight));
        if self.hints_of(&req.target).is_some() {
            let ow = self.profile.latency.one_way(self.host(a));
            q.schedule(now + ow, Ev::Net(NetEv::HeadersArrive(req.target)));
        }
        self.on_link_completions(q, now, completed);
        self.reschedule_link_tick(q, now);
    }

    /// The hints the server attaches to `target`'s response headers.
    /// Responses without any schedule no `HeadersArrive` at all.
    fn hints_of(&self, target: &Target) -> Option<&'a [Hint]> {
        let cfg = self.cfg;
        match target {
            Target::Real(id) => self.res_uid[*id]
                .and_then(|uid| cfg.server.hints.get(&uid))
                .map(|h| h.as_slice()),
            Target::Waste { .. } => None,
        }
    }

    /// Injected truncation: how many bytes of `req` actually cross the
    /// link on this attempt, and whether the stream dies after them.
    fn faulted_size(&self, req: &Req) -> (u64, bool) {
        let (full, url, attempt) = match req.target {
            Target::Real(id) => {
                let size = self.page.resources[id].size;
                (size, self.res_uid[id].ok_or(id), req.attempt.max(1))
            }
            Target::Waste { url, size } => (size, Ok(url), 1),
        };
        if !self.fault_active {
            return (full, false);
        }
        let url = match url {
            Ok(uid) => Arc::clone(self.cfg.urls.full_url(uid)),
            // vroom-lint: allow(hot-path-alloc) -- fault-injection fallback for resources the config never interned
            Err(id) => Arc::from(self.page.resources[id].url.to_string()),
        };
        match self.cfg.fault.truncation(&url, attempt) {
            Some(frac) => (((full as f64 * frac) as u64).max(1), true),
            None => (full, false),
        }
    }

    fn on_link_completions(&mut self, q: &mut Queue, now: SimTime, completed: Vec<TransferId>) {
        for tid in completed {
            let pos = self
                .flights
                .binary_search_by_key(&tid, |(t, _)| *t)
                .expect("every transfer on the link is a flight");
            let (_, f) = self.flights.remove(pos);
            #[cfg(test)]
            self.ledger.push(Trace::Ended(tid.0, !f.truncated));
            let ow = self.profile.latency.one_way(self.host(f.via)) + f.penalty;
            // A truncated body stops early; the server's RST_STREAM reaches
            // the client one propagation delay later.
            let ev = match f.truncated {
                true => NetEv::ResponseFailed(f.req.target),
                false => NetEv::ResponseDelivered(f.req.target),
            };
            q.schedule(now + ow, Ev::Net(ev));
            if self.ordered {
                // The connection stays occupied through its slow-start
                // tail: a cold connection genuinely cannot carry the next
                // response until the extra round trips have elapsed.
                q.schedule(now + f.penalty, Ev::Net(NetEv::ConnFree(f.via)));
            }
        }
    }

    /// Take a cancelled flight's transfer off the link.
    fn cancel(&mut self, tid: TransferId) {
        #[cfg(test)]
        self.ledger
            .push(Trace::Cancelled(tid.0, self.link.remaining_bytes(tid)));
        self.link.cancel(tid);
    }

    /// An ordered connection's response is done with it: carry the next
    /// request (HTTP/1.1) or start the next queued response.
    fn free_conn(&mut self, q: &mut Queue, now: SimTime, a: Addr) {
        self.conn(a).state = ConnState::Idle;
        if self.cfg.http == HttpVersion::H1 {
            self.h1_dispatch(q, now, a.dom as usize);
        } else {
            self.start_next_response(q, now, a);
        }
    }

    fn reschedule_link_tick(&mut self, q: &mut Queue, now: SimTime) {
        match self.link.next_completion(now) {
            Some(at) => {
                if self.link_tick_at != Some(at) {
                    self.link_tick_at = Some(at);
                    q.schedule(at, Ev::Net(NetEv::LinkTick));
                }
            }
            None => self.link_tick_at = None,
        }
    }

    // ---------------------------------------------------------------- events

    /// Handle one of the transport's events and say what the browser hears.
    pub(crate) fn handle(&mut self, q: &mut Queue, now: SimTime, ev: NetEv) -> Heard<'a> {
        match ev {
            NetEv::ConnReady(a) => {
                let c = self.conn(a);
                if c.epoch != a.epoch {
                    return Heard::Nothing; // superseded incarnation
                }
                c.state = ConnState::Idle;
                // Fate the connection at handshake time: only first
                // incarnations may drop, so reconnects always survive.
                if self.fault_active && a.epoch == 0 {
                    if let Some(delay) = self.cfg.fault.conn_drop(self.host(a), a.conn as usize) {
                        q.schedule(now + delay, Ev::Net(NetEv::ConnDropped(a)));
                    }
                }
                match self.cfg.http {
                    HttpVersion::H2 => {
                        while let Some(req) = self.domains[a.dom as usize].pending.pop_front() {
                            self.to_server(q, now, a, req);
                        }
                    }
                    HttpVersion::H1 => self.h1_dispatch(q, now, a.dom as usize),
                }
                Heard::Nothing
            }
            NetEv::ServerArrival(a, req) => {
                // The request rode a connection that has since been torn
                // down: it died with the socket.
                let c = self.conn(a);
                if c.epoch != a.epoch || c.state == ConnState::Connecting {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    return Heard::Failed(req.target);
                }
                // The server enqueues the response — and, for HTML under
                // HTTP/2, pushes same-domain dependencies right behind it.
                self.enqueue_response(q, now, a, req);
                let cfg = self.cfg;
                let pushes = match (cfg.http, req.target) {
                    (HttpVersion::H2, Target::Real(id)) => self.res_uid[id]
                        .and_then(|uid| cfg.server.pushes.get(&uid))
                        .map_or(&[][..], |p| p.as_slice()),
                    _ => &[],
                };
                Heard::Promised(pushes, a)
            }
            NetEv::LinkTick => {
                // Only the tracked tick is consumed; a stale tick (an old
                // prediction) must leave `link_tick_at` alone, or its
                // reschedule re-creates the still-live tracked tick as a
                // same-instant duplicate — and every duplicate propagates
                // another one forward, an event storm of arithmetic no-ops
                // (an `advance` at an already-advanced instant is zero-dt).
                if self.link_tick_at == Some(now) {
                    self.link_tick_at = None;
                }
                let completed = self.link.advance(now);
                self.on_link_completions(q, now, completed);
                self.reschedule_link_tick(q, now);
                Heard::Nothing
            }
            NetEv::HeadersArrive(target) => {
                Heard::Hints(self.hints_of(&target).expect("scheduled only with hints"))
            }
            NetEv::ResponseDelivered(target) => {
                self.outstanding = self.outstanding.saturating_sub(1);
                Heard::Delivered(target)
            }
            NetEv::ResponseFailed(target) => {
                // The stream died mid-body: RST_STREAM semantics. The
                // partial bytes were delivered by the link but are useless.
                self.rst_streams += 1;
                self.outstanding = self.outstanding.saturating_sub(1);
                Heard::Failed(target)
            }
            NetEv::ConnDropped(a) => self.on_conn_dropped(q, now, a),
            NetEv::ConnFree(a) => {
                if self.conn(a).epoch == a.epoch {
                    // Its own tail ends: nothing else freed it meanwhile.
                    debug_assert_eq!(self.conn(a).state, ConnState::Sending);
                    self.free_conn(q, now, a);
                } // else: addressed to a dead incarnation
                Heard::Nothing
            }
        }
    }

    /// Injected connection drop: GOAWAY semantics. Every stream the
    /// connection carried is lost; the socket re-handshakes with a bumped
    /// epoch (replacement connections are never re-dropped, so every load
    /// terminates).
    fn on_conn_dropped(&mut self, q: &mut Queue, now: SimTime, a: Addr) -> Heard<'a> {
        let c = self.conn(a);
        if c.epoch != a.epoch || c.state == ConnState::Connecting {
            return Heard::Nothing;
        }
        self.goaways += 1;
        let completed = self.link.advance(now);
        self.on_link_completions(q, now, completed);
        // Cancel whatever this connection still has on the link, then
        // everything queued behind it.
        let mut lost: Vec<Target> = Vec::new();
        while let Some(i) = self.flights.iter().position(|(_, f)| f.via == a) {
            let (tid, flight) = self.flights.remove(i);
            self.cancel(tid);
            lost.push(flight.req.target);
        }
        let c = self.conn(a);
        lost.extend(c.queue.drain(..).map(|r| r.target));
        c.epoch += 1;
        c.state = ConnState::Connecting;
        c.cwnd = INITIAL_CWND;
        self.outstanding = self.outstanding.saturating_sub(lost.len());
        Heard::Dropped(lost, a)
    }
}
