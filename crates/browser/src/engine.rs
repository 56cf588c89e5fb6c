//! The discrete-event mobile-browser engine.
//!
//! Substitutes for Chrome-on-a-Nexus-6 in the paper's testbed. The model
//! keeps exactly the couplings the paper's analysis rests on:
//!
//! * a **single processing thread** — parsing and JS execution serialize
//!   (§2: extra cores don't help);
//! * **incremental discovery** — a resource's URL becomes known only when
//!   its parent has been fetched and processed far enough, unless a hint or
//!   push promise reveals it earlier;
//! * **parser blocking** — synchronous scripts halt HTML parsing until they
//!   are fetched and executed, and scripts wait on earlier stylesheets.
//!
//! This module is the browser half. Everything between a request and its
//! response — connections, ordered vs multiplexed serving, the shared
//! access link, injected faults — belongs to the crate-private
//! `transport` module; the two share one event queue and meet at one
//! narrow seam (DESIGN §2r).

use crate::config::{FetchPolicy, Hint, LoadConfig};
use crate::metrics::{LoadResult, ResourceTiming};
use crate::transport::{Buffers, Heard, NetEv, Req, Target, Transport};
use std::collections::{BTreeMap, VecDeque};
use vroom_html::{ExecMode, ResourceKind};
use vroom_intern::UrlId;
use vroom_net::fault::RetryBudget;
use vroom_net::profiles::NetworkProfile;
use vroom_pages::{Page, ResourceId};
use vroom_sim::{EventQueue, SimDuration, SimTime};

/// Simulation events: the transport's own, and the browser's.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Connections, the server and the link (see [`NetEv`]).
    Net(NetEv),
    /// Per-request timeout: attempt `attempt` at fetching `id` has run out
    /// of patience; the client resets the stream and backs off.
    FetchTimeout { id: ResourceId, attempt: u32 },
    /// A backed-off retry fires.
    Retry { id: ResourceId },
    /// The CPU finished its current task.
    CpuDone,
    /// The parser reached the document position of a child resource.
    Discover { id: ResourceId },
    /// The Vroom scheduler's response handler opens the next fetch stage.
    StageOpen { tier: u8 },
    /// An image/font/media resource finished decoding (off the main
    /// thread — raster/compositor work does not contend with JS).
    DecodeDone { id: ResourceId },
}

/// CPU task classes, lower = more urgent.
const CLASS_PARSER: u8 = 0;
const CLASS_CSS: u8 = 1;
const CLASS_DEFER: u8 = 3;
const CLASS_ASYNC: u8 = 4;
const CLASS_DECODE: u8 = 5;

/// The root document's parser runs ahead of everything; iframe documents
/// run as deferred work.
fn parser_class(html_id: ResourceId) -> u8 {
    if html_id == 0 {
        CLASS_PARSER
    } else {
        CLASS_DEFER
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Task {
    /// Run one segment of an HTML parse.
    HtmlSegment { html: ResourceId },
    /// Execute a script (sync scripts resume their parser afterwards).
    ExecJs {
        id: ResourceId,
        resumes: Option<ResourceId>,
    },
    /// Parse a stylesheet.
    ParseCss { id: ResourceId },
    /// Decode/handle a leaf resource (image, font, xhr payload).
    Decode { id: ResourceId },
}

/// Per-HTML incremental parse state.
#[derive(Debug)]
struct HtmlParse {
    /// Ordered plan: alternating parse spans and script waits.
    plan: Vec<Segment>,
    next: usize,
    /// Set when the parser is stalled on a sync script's prerequisites.
    blocked: bool,
    done: bool,
}

#[derive(Debug)]
enum Segment {
    /// Parse for `duration`, revealing `discoveries` at given fractions of
    /// the segment.
    Parse {
        duration: SimDuration,
        discoveries: Vec<(ResourceId, f64)>,
    },
    /// Wait for a sync script (and its blocking stylesheets), then run it.
    AwaitScript {
        js: ResourceId,
        css_deps: Vec<ResourceId>,
    },
}

#[derive(Debug, Default, Clone)]
struct RState {
    discovered: Option<SimTime>,
    requested: Option<SimTime>,
    fetched: Option<SimTime>,
    processed: Option<SimTime>,
    from_cache: bool,
    pushed: bool,
    in_flight: bool,
    /// Fetch attempts started (1 on the first request; only grows under an
    /// active fault plan).
    attempts: u32,
    /// A previous attempt failed and a backed-off retry is (or was)
    /// pending. Retrying resources never gate stage transitions — the
    /// degradation rule that keeps the critical path off a flaky push.
    retrying: bool,
    /// When the first attempt was issued — `requested` is cleared between
    /// attempts, but the trace reports the original request time.
    first_requested: Option<SimTime>,
    /// Retry budget exhausted; onload degrades around this resource.
    failed: bool,
    /// Counted in `Sim::settled_cnt`: onload no longer waits on this
    /// discovered resource (see [`Sim::check_done`]).
    settled: bool,
}

/// Client CPU cost of one scheduler stage transition — the JavaScript
/// `response_handler` of §5.2 runs on the single JS thread.
const STAGE_TRANSITION_COST: SimDuration = SimDuration::from_millis(5);

/// Per-request timeout, capped backoff and attempt budget. Armed only
/// while a fault plan is active: the simulated network cannot fail
/// spontaneously, so fault-free loads never time out by construction.
const RETRY: RetryBudget = RetryBudget::standard();

struct Cpu {
    running: Option<(Task, SimTime)>,
    ready: VecDeque<(u8, u64, Task)>, // (class, seq, task) kept sorted
    seq: u64,
}

impl Cpu {
    fn push(&mut self, class: u8, task: Task) {
        self.seq += 1;
        let entry = (class, self.seq, task);
        let pos = self
            .ready
            .iter()
            .position(|(c, s, _)| (*c, *s) > (entry.0, entry.1))
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, entry);
    }
}

/// The parse span `[start, end)` of a document whose whole parse takes
/// `total`, revealing `discoveries` (document positions) at their fractions
/// of the span.
fn parse_span(
    total: SimDuration,
    start: f64,
    end: f64,
    discoveries: Vec<(ResourceId, f64)>,
) -> Segment {
    let at = |f: f64| {
        if end > start {
            ((f - start) / (end - start)).clamp(0.0, 1.0)
        } else {
            1.0
        }
    };
    Segment::Parse {
        duration: total.mul_f64(end - start),
        discoveries: discoveries.into_iter().map(|(id, f)| (id, at(f))).collect(),
    }
}

/// Build the page's children index into the recycled `start`/`ids`
/// buffers. Once per load, it replaces a whole-page scan per processed
/// resource.
fn children_index(
    page: &Page,
    mut start: Vec<usize>,
    mut ids: Vec<ResourceId>,
) -> (Vec<usize>, Vec<ResourceId>) {
    start.clear();
    start.resize(page.len() + 1, 0);
    for p in page.resources.iter().filter_map(|r| r.parent) {
        start[p] += 1;
    }
    // Running sums: `start[p]` becomes the end of p's range.
    let mut total = 0;
    for s in &mut start {
        total += *s;
        *s = total;
    }
    ids.clear();
    ids.resize(total, 0);
    // Filling backwards moves each `start[p]` down to its range's
    // beginning and leaves every range in resource order.
    for r in page.resources.iter().rev() {
        if let Some(p) = r.parent {
            start[p] -= 1;
            ids[start[p]] = r.id;
        }
    }
    (start, ids)
}

/// The engine: loads one page under one configuration.
pub struct BrowserEngine;

impl BrowserEngine {
    /// Simulate the load and return its metrics.
    pub fn load(page: &Page, profile: &NetworkProfile, cfg: &LoadConfig) -> LoadResult {
        let mut scratch = EngineScratch::default();
        Self::load_with_scratch(page, profile, cfg, &mut scratch)
    }

    /// Simulate the load reusing the buffers in `scratch`.
    ///
    /// Behaviourally identical to [`BrowserEngine::load`]: every buffer is
    /// cleared and rebuilt from the `(page, profile, cfg)` inputs before
    /// use, so a recycled scratch cannot leak state between loads. What it
    /// saves is the allocator traffic — a load makes tens of thousands of
    /// container operations, and callers that load many pages back-to-back
    /// (one scratch per fleet worker) skip the grow-from-zero cost every
    /// time.
    pub fn load_with_scratch(
        page: &Page,
        profile: &NetworkProfile,
        cfg: &LoadConfig,
        scratch: &mut EngineScratch,
    ) -> LoadResult {
        let sim = Sim::new_in(page, profile, cfg, scratch);
        sim.run_load(scratch)
    }
}

/// Reusable per-worker buffers for back-to-back loads — the event queue,
/// the transport's link and per-resource tables, and every per-resource
/// side table the simulation rebuilds at construction. See
/// [`BrowserEngine::load_with_scratch`] for the safety argument.
impl EngineScratch {
    /// Events the most recent load scheduled — diagnostic only.
    pub fn last_event_count(&self) -> u64 {
        self.queue.total_scheduled()
    }
}

#[derive(Default)]
pub struct EngineScratch {
    uid_to_res: Vec<(UrlId, ResourceId)>,
    child_start: Vec<usize>,
    child_ids: Vec<ResourceId>,
    warm: Vec<Option<crate::config::CacheEntry>>,
    rstate: Vec<RState>,
    staged: [VecDeque<Target>; 3],
    stage_outstanding: Vec<Target>,
    cpu_ready: VecDeque<(u8, u64, Task)>,
    paints: Vec<(SimTime, f64)>,
    queue: EventQueue<Ev>,
    pub(crate) net: Buffers,
}

/// The browser half of a load: discovery, the parse plan, the CPU queue,
/// paint and settle. Everything between a request and its response is the
/// [`Transport`]'s.
struct Sim<'a> {
    page: &'a Page,
    cfg: &'a LoadConfig,
    now: SimTime,
    queue: EventQueue<Ev>,
    net: Transport<'a>,
    /// Reverse map: the page's resolved `(interned id, resource)` pairs,
    /// sorted, looked up by binary search in [`Sim::res_of`]. Sized by the
    /// page, not by the shared intern table, so a load's setup cost does not
    /// grow with the table. For duplicate resource URLs the later resource
    /// wins.
    uid_to_res: Vec<(UrlId, ResourceId)>,
    /// Children index in CSR form: the children of resource `id` are
    /// `child_ids[child_start[id]..child_start[id + 1]]`, in resource order
    /// (the order [`Page::children`] yields them in).
    child_start: Vec<usize>,
    child_ids: Vec<ResourceId>,
    /// Warm-cache entry per resource, resolved once at construction.
    warm: Vec<Option<crate::config::CacheEntry>>,
    rstate: Vec<RState>,
    cpu: Cpu,
    html: BTreeMap<ResourceId, HtmlParse>,
    /// Hinted URLs by tier, in arrival order, not yet requested.
    staged: [VecDeque<Target>; 3],
    /// Tier-0 (and later tier-1) targets whose completion gates the next
    /// stage kick.
    stage_outstanding: Vec<Target>,
    current_stage: u8,
    stage_kick_queued: bool,
    /// Discovered resources so far — with `settled_cnt`, the onload gate
    /// (see [`Sim::check_done`]).
    discovered_cnt: usize,
    /// Discovered resources onload no longer waits on: fetched and
    /// processed, failed, or orphaned below a failed ancestor.
    settled_cnt: usize,
    /// Accounting.
    last_event: SimTime,
    cpu_busy: SimDuration,
    network_wait: SimDuration,
    useful_bytes: u64,
    wasted_bytes: u64,
    cache_hits: usize,
    retries: usize,
    timeouts: usize,
    paints: Vec<(SimTime, f64)>,
    finished: bool,
    plt: SimTime,
    discovery_all: SimTime,
    discovery_high: SimTime,
    fetch_all: SimTime,
    fetch_high: SimTime,
}

impl<'a> Sim<'a> {
    /// Build a simulation whose working buffers come from `scratch`. Every
    /// buffer is cleared and repopulated before use; the resulting `Sim`
    /// owns them (no borrow of the scratch is retained), and
    /// [`Sim::stash`] returns them after the run.
    fn new_in(
        page: &'a Page,
        profile: &'a NetworkProfile,
        cfg: &'a LoadConfig,
        scratch: &mut EngineScratch,
    ) -> Self {
        let net = Transport::new_in(page, profile, cfg, &mut scratch.net);
        let mut uid_to_res = std::mem::take(&mut scratch.uid_to_res);
        uid_to_res.clear();
        uid_to_res.extend(
            net.res_uid
                .iter()
                .enumerate()
                .filter_map(|(id, uid)| uid.map(|uid| (uid, id))),
        );
        // Pairs are distinct (one per resource), so the unstable sort is
        // deterministic; duplicates of one id end in resource order.
        uid_to_res.sort_unstable();
        let (child_start, child_ids) = children_index(
            page,
            std::mem::take(&mut scratch.child_start),
            std::mem::take(&mut scratch.child_ids),
        );
        let mut warm = std::mem::take(&mut scratch.warm);
        warm.clear();
        warm.extend(
            page.resources
                .iter()
                .map(|r| cfg.warm_cache.get(&r.url).copied()),
        );
        let mut rstate = std::mem::take(&mut scratch.rstate);
        rstate.clear();
        rstate.resize(page.len(), RState::default());
        let mut queue = std::mem::take(&mut scratch.queue);
        queue.recycle();
        let mut staged = std::mem::take(&mut scratch.staged);
        for tier in &mut staged {
            tier.clear();
        }
        let mut stage_outstanding = std::mem::take(&mut scratch.stage_outstanding);
        stage_outstanding.clear();
        let mut cpu_ready = std::mem::take(&mut scratch.cpu_ready);
        cpu_ready.clear();
        let mut paints = std::mem::take(&mut scratch.paints);
        paints.clear();
        Sim {
            page,
            cfg,
            now: SimTime::ZERO,
            queue,
            net,
            uid_to_res,
            child_start,
            child_ids,
            warm,
            rstate,
            cpu: Cpu {
                running: None,
                ready: cpu_ready,
                seq: 0,
            },
            html: BTreeMap::new(),
            staged,
            stage_outstanding,
            current_stage: 0,
            stage_kick_queued: false,
            discovered_cnt: 0,
            settled_cnt: 0,
            last_event: SimTime::ZERO,
            cpu_busy: SimDuration::ZERO,
            network_wait: SimDuration::ZERO,
            useful_bytes: 0,
            wasted_bytes: 0,
            cache_hits: 0,
            retries: 0,
            timeouts: 0,
            paints,
            finished: false,
            plt: SimTime::ZERO,
            discovery_all: SimTime::ZERO,
            discovery_high: SimTime::ZERO,
            fetch_all: SimTime::ZERO,
            fetch_high: SimTime::ZERO,
        }
    }

    fn run_load(mut self, scratch: &mut EngineScratch) -> LoadResult {
        // Kick off: root (and, for the network-bound bound, everything).
        if self.cfg.network_bound {
            for id in 0..self.page.len() {
                self.discover(id);
            }
        } else {
            self.discover(0);
        }

        let mut guard = 0u64;
        while let Some((at, ev)) = self.queue.pop() {
            guard += 1;
            assert!(guard < 50_000_000, "runaway simulation");
            debug_assert!(at >= self.now);
            self.account_interval(at);
            self.now = at;
            self.handle(ev);
            if self.finished {
                break;
            }
        }
        assert!(
            self.finished,
            "load stalled: queue drained before onload \
             (fetched {}/{} processed {}/{}); stuck: {:?}",
            self.rstate.iter().filter(|r| r.fetched.is_some()).count(),
            self.page.len(),
            self.rstate.iter().filter(|r| r.processed.is_some()).count(),
            self.page.len(),
            self.rstate
                .iter()
                .enumerate()
                .filter(|(_, st)| st.discovered.is_some() && !st.settled)
                .map(|(id, st)| {
                    // vroom-lint: allow(hot-path-alloc) -- stall diagnostic: renders only when the load deadlocks and the assert fires
                    format!(
                        "#{id} {:?} req={:?} fetched={} inflight={} retrying={} attempts={}",
                        self.page.resources[id].kind,
                        st.requested,
                        st.fetched.is_some(),
                        st.in_flight,
                        st.retrying,
                        st.attempts,
                    )
                })
                .collect::<Vec<_>>(),
        );
        let result = self.result();
        self.stash(scratch);
        result
    }

    /// Return the working buffers to `scratch` for the next load. Runs
    /// after [`Sim::result`] so nothing the metrics read is disturbed; the
    /// buffers are cleared on the way back in at the next `new_in`.
    fn stash(&mut self, scratch: &mut EngineScratch) {
        scratch.uid_to_res = std::mem::take(&mut self.uid_to_res);
        scratch.child_start = std::mem::take(&mut self.child_start);
        scratch.child_ids = std::mem::take(&mut self.child_ids);
        scratch.warm = std::mem::take(&mut self.warm);
        scratch.rstate = std::mem::take(&mut self.rstate);
        scratch.staged = std::mem::take(&mut self.staged);
        scratch.stage_outstanding = std::mem::take(&mut self.stage_outstanding);
        scratch.cpu_ready = std::mem::take(&mut self.cpu.ready);
        scratch.paints = std::mem::take(&mut self.paints);
        scratch.queue = std::mem::take(&mut self.queue);
        self.net.stash(&mut scratch.net);
    }

    // ------------------------------------------------------------ accounting

    fn account_interval(&mut self, upto: SimTime) {
        let dt = upto.saturating_since(self.last_event);
        if dt > SimDuration::ZERO && !self.finished {
            if self.cpu.running.is_some() {
                self.cpu_busy += dt;
            } else if self.net.outstanding > 0 {
                self.network_wait += dt;
            }
        }
        self.last_event = upto;
    }

    // ------------------------------------------------------------- discovery

    /// Mark `id` discovered now, once; returns whether it was new. A
    /// resource discovered below a failed ancestor settles at once: nothing
    /// will ever process it. `timed` discoveries count toward the
    /// discovery-time metrics.
    fn mark_discovered(&mut self, id: ResourceId, timed: bool) -> bool {
        if self.rstate[id].discovered.is_some() {
            return false;
        }
        self.rstate[id].discovered = Some(self.now);
        self.discovered_cnt += 1;
        if self.ancestor_failed(id) {
            self.settle(id);
        }
        if timed {
            self.discovery_all = self.discovery_all.max(self.now);
            if self.page.resources[id].needs_processing() {
                self.discovery_high = self.discovery_high.max(self.now);
            }
        }
        true
    }

    fn discover(&mut self, id: ResourceId) {
        if !self.mark_discovered(id, true) {
            return;
        }
        // The browser itself fetches whatever the document demands the
        // moment the parser/script encounters it — Vroom's JS scheduler can
        // only stage its *hint-driven prefetches* (§5.2: hinted URLs are
        // requested via injected preload tags; document-initiated requests
        // proceed normally and are answered from the preload cache when the
        // prefetch already completed).
        self.request(Target::Real(id));
    }

    /// The children of `id`, in resource order, from the per-load index.
    fn children_of(&self, id: ResourceId) -> &[ResourceId] {
        &self.child_ids[self.child_start[id]..self.child_start[id + 1]]
    }

    /// Discover every child of a resource that has just been processed.
    fn discover_children(&mut self, id: ResourceId) {
        for k in self.child_start[id]..self.child_start[id + 1] {
            self.discover(self.child_ids[k]);
        }
    }

    /// The page resource an interned URL names, if any; the later resource
    /// wins a duplicate URL.
    fn res_of(&self, uid: UrlId) -> Option<ResourceId> {
        let end = self.uid_to_res.partition_point(|&(u, _)| u <= uid);
        match end.checked_sub(1).map(|i| self.uid_to_res[i]) {
            Some((u, id)) if u == uid => Some(id),
            _ => None,
        }
    }

    /// A `Discover` event for a URL the client already learned via hints:
    /// the document now *demands* it, overriding any staging.
    fn parser_demands(&mut self, id: ResourceId) {
        if self.rstate[id].requested.is_none() && self.rstate[id].fetched.is_none() {
            self.request(Target::Real(id));
        }
    }

    /// Handle a hint list arriving with an HTML response.
    fn on_hints(&mut self, hints: &[Hint]) {
        for h in hints.iter() {
            let target = match self.res_of(h.url) {
                Some(id) => {
                    self.mark_discovered(id, true);
                    if self.rstate[id].requested.is_some() || self.rstate[id].fetched.is_some() {
                        continue;
                    }
                    Target::Real(id)
                }
                None => Target::Waste {
                    url: h.url,
                    size: h.size_hint,
                },
            };
            match self.cfg.fetch_policy {
                FetchPolicy::OnDiscovery => self.request(target),
                FetchPolicy::VroomStaged => {
                    let tier = h.tier.min(2);
                    if tier <= self.current_stage {
                        // This tier is already open: fetch immediately.
                        if tier == self.current_stage {
                            self.stage_outstanding.push(target);
                        }
                        self.request(target);
                    } else {
                        self.staged[tier as usize].push_back(target);
                    }
                }
            }
        }
        if self.cfg.fetch_policy == FetchPolicy::VroomStaged {
            self.maybe_kick_stage();
        }
    }

    fn maybe_kick_stage(&mut self) {
        if self.stage_kick_queued || self.current_stage >= 2 {
            return;
        }
        // The current stage drains when every hinted target in it finished.
        let drained = self
            .stage_outstanding
            .iter()
            .all(|t| self.target_fetched(t));
        if !drained {
            return;
        }
        let next = (self.current_stage + 1).min(2);
        self.stage_kick_queued = true;
        // The scheduler's response handler (§5.2) is a JS macrotask: it
        // fires once the currently executing task yields — it cannot
        // preempt a running script, which is exactly the delay the paper
        // calls out — plus a small handler cost.
        let fire_at = match &self.cpu.running {
            Some((_, end)) => *end,
            None => self.now,
        } + STAGE_TRANSITION_COST;
        self.queue.schedule(fire_at, Ev::StageOpen { tier: next });
    }

    fn target_fetched(&self, t: &Target) -> bool {
        match t {
            // A target counts as drained once fetched — or once it is
            // failed or merely *retrying*: a stage transition (the critical
            // path of every later tier) never waits on a flaky fetch.
            Target::Real(id) => {
                let st = &self.rstate[*id];
                st.fetched.is_some() || st.failed || st.retrying
            }
            // A waste fetch drains once the transport no longer carries it.
            Target::Waste { url, .. } => !self.net.carries_waste(*url),
        }
    }

    // -------------------------------------------------------------- fetching

    fn request(&mut self, target: Target) {
        let attempt = match target {
            Target::Real(id) => {
                let st = &mut self.rstate[id];
                if st.requested.is_some() || st.fetched.is_some() || st.failed {
                    return;
                }
                // Cache?
                if let Some(entry) = &self.warm[id] {
                    if entry.fresh() {
                        st.from_cache = true;
                        st.requested = None;
                        self.cache_hits += 1;
                        self.finish_fetch(Target::Real(id));
                        return;
                    }
                }
                st.requested = Some(self.now);
                if self.cfg.zero_network {
                    self.finish_fetch(Target::Real(id));
                    return;
                }
                self.start_attempt(id);
                self.rstate[id].attempts
            }
            // Nothing to waste when the network is free.
            Target::Waste { .. } if self.cfg.zero_network => return,
            Target::Waste { .. } => 0,
        };
        let req = Req { target, attempt };
        self.net.fetch(&mut self.queue, self.now, req);
    }

    /// Under an active fault plan, count a new fetch attempt for `id` and
    /// arm its timeout.
    fn start_attempt(&mut self, id: ResourceId) {
        if !self.net.fault_active {
            return;
        }
        let st = &mut self.rstate[id];
        st.attempts += 1;
        let attempt = st.attempts;
        self.queue
            .schedule(self.now + RETRY.timeout, Ev::FetchTimeout { id, attempt });
    }

    fn finish_fetch(&mut self, target: Target) {
        let Target::Real(id) = target else { return };
        let st = &mut self.rstate[id];
        if st.fetched.is_some() {
            return;
        }
        st.fetched = Some(self.now);
        self.fetch_all = self.fetch_all.max(self.now);
        let r = &self.page.resources[id];
        if r.needs_processing() {
            self.fetch_high = self.fetch_high.max(self.now);
        }
        if !st.from_cache {
            self.useful_bytes += r.size;
        }
        self.note_settled(id);

        if self.cfg.network_bound {
            // Every resource was discovered at t = 0; none is processed.
            self.rstate[id].processed = Some(self.now);
            self.note_settled(id);
            self.check_done();
            return;
        }

        // Queue the right CPU work.
        match r.kind {
            ResourceKind::Html => {
                self.build_parse_plan(id);
                self.maybe_start_parser(id);
            }
            ResourceKind::Js => match r.exec {
                ExecMode::Sync => {
                    // Markup scripts belong to their document's parser: they
                    // execute exactly once, when the parser reaches their
                    // position (except under Polaris, whose fine-grained
                    // dependency tracking decouples them). Dynamically
                    // loaded scripts (parent is a script) run when fetched.
                    let parser_owned = !self.cfg.fine_grained_dependencies
                        && r.via_markup
                        && r.parent
                            .map(|p| self.page.resources[p].kind == ResourceKind::Html)
                            .unwrap_or(false);
                    if parser_owned {
                        if let Some(html) = self.blocking_parser_of(id) {
                            self.try_unblock_parser(html);
                        }
                        // else: the parser will pick it up at its position.
                    } else {
                        self.cpu
                            .push(CLASS_ASYNC, Task::ExecJs { id, resumes: None });
                    }
                }
                ExecMode::Async => self
                    .cpu
                    .push(CLASS_ASYNC, Task::ExecJs { id, resumes: None }),
                ExecMode::Defer => self
                    .cpu
                    .push(CLASS_DEFER, Task::ExecJs { id, resumes: None }),
            },
            ResourceKind::Css => {
                self.cpu.push(CLASS_CSS, Task::ParseCss { id });
            }
            ResourceKind::Image | ResourceKind::Font | ResourceKind::Media => {
                // Decoding and rasterization happen off the main thread in
                // modern browsers; only the (cheap) decode latency applies.
                let dt = r.cpu_cost.mul_f64(self.cfg.cpu_factor);
                self.queue.schedule(self.now + dt, Ev::DecodeDone { id });
            }
            _ => {
                // XHR payloads and miscellaneous fetches are handled by JS
                // on the main thread.
                self.cpu.push(CLASS_DECODE, Task::Decode { id });
            }
        }
        self.try_run_cpu();
        if self.cfg.fetch_policy == FetchPolicy::VroomStaged {
            self.maybe_kick_stage();
        }
        self.check_done();
    }

    // ------------------------------------------------------------- HTML parse

    fn build_parse_plan(&mut self, html_id: ResourceId) {
        let page = self.page;
        let r = &page.resources[html_id];
        let mut children: Vec<&vroom_pages::Resource> = self
            .children_of(html_id)
            .iter()
            .map(|&c| &page.resources[c])
            .collect();
        children.sort_by(|a, b| {
            a.discovery_frac
                .total_cmp(&b.discovery_frac)
                .then(a.id.cmp(&b.id))
        });
        let total = r.cpu_cost.mul_f64(self.cfg.cpu_factor);
        let mut plan = Vec::new();
        let mut span_discoveries: Vec<(ResourceId, f64)> = Vec::new();
        let mut span_start = 0.0f64;
        let mut css_seen: Vec<ResourceId> = Vec::new();
        // Polaris's fine-grained dependency tracking removes false
        // parser/script ordering constraints: the client keeps discovering
        // the rest of the document while scripts are in flight.
        let parser_blocking_scripts = !self.cfg.fine_grained_dependencies;
        for c in &children {
            let is_blocking_script = parser_blocking_scripts
                && c.kind == ResourceKind::Js
                && c.exec == ExecMode::Sync
                && c.via_markup;
            if is_blocking_script {
                // Close the current parse span at the script's position.
                let frac = c.discovery_frac.max(span_start);
                let discoveries = std::mem::take(&mut span_discoveries);
                plan.push(parse_span(total, span_start, frac, discoveries));
                plan.push(Segment::AwaitScript {
                    js: c.id,
                    // vroom-lint: allow(hot-path-alloc) -- plan construction runs once per HTML parse; css_deps is a handful of ids
                    css_deps: css_seen.clone(),
                });
                span_start = frac;
            } else {
                span_discoveries.push((c.id, c.discovery_frac));
                if c.kind == ResourceKind::Css {
                    css_seen.push(c.id);
                }
            }
        }
        plan.push(parse_span(total, span_start, 1.0, span_discoveries));
        self.html.insert(
            html_id,
            HtmlParse {
                plan,
                next: 0,
                blocked: false,
                done: false,
            },
        );
    }

    /// Iframe documents wait for the root document to finish parsing
    /// (paper footnote 4).
    fn maybe_start_parser(&mut self, html_id: ResourceId) {
        if html_id != 0 {
            let root_done = self.html.get(&0).map(|h| h.done).unwrap_or(false);
            if !root_done {
                return;
            }
        }
        self.cpu
            .push(parser_class(html_id), Task::HtmlSegment { html: html_id });
        self.try_run_cpu();
    }

    fn blocking_parser_of(&self, js: ResourceId) -> Option<ResourceId> {
        for (&html_id, parse) in &self.html {
            if parse.blocked {
                if let Some(Segment::AwaitScript { js: j, .. }) = parse.plan.get(parse.next) {
                    if *j == js {
                        return Some(html_id);
                    }
                }
            }
        }
        None
    }

    /// A stylesheet finished processing — it may unblock a waiting script.
    fn on_css_processed(&mut self) {
        let blocked: Vec<ResourceId> = self
            .html
            .iter()
            .filter(|(_, p)| p.blocked)
            .map(|(&id, _)| id)
            .collect();
        for html_id in blocked {
            self.try_unblock_parser(html_id);
        }
    }

    fn try_unblock_parser(&mut self, html_id: ResourceId) {
        let Some(parse) = self.html.get(&html_id) else {
            return;
        };
        if !parse.blocked {
            return;
        }
        let Some(Segment::AwaitScript { js, css_deps }) = parse.plan.get(parse.next) else {
            return;
        };
        let js = *js;
        // vroom-lint: allow(hot-path-alloc) -- ends the parse-plan borrow; a handful of ids per blocked script
        let css_deps = css_deps.clone();
        if self.rstate[js].failed {
            // Degradation: a script whose every fetch attempt failed cannot
            // block its parser forever — skip execution, resume parsing.
            self.html.get_mut(&html_id).expect("exists").blocked = false;
            self.continue_parse(html_id);
            return;
        }
        let ready = self.rstate[js].fetched.is_some()
            && css_deps
                .iter()
                .all(|&c| self.rstate[c].processed.is_some() || self.rstate[c].failed);
        if !ready {
            return;
        }
        self.html.get_mut(&html_id).expect("exists").blocked = false;
        let resumes = Some(html_id);
        self.cpu
            .push(parser_class(html_id), Task::ExecJs { id: js, resumes });
        self.try_run_cpu();
    }

    /// Advance an HTML parse after a segment or its blocking script is done.
    fn continue_parse(&mut self, html_id: ResourceId) {
        let Some(parse) = self.html.get_mut(&html_id) else {
            return;
        };
        parse.next += 1;
        if parse.next >= parse.plan.len() {
            parse.done = true;
            self.rstate[html_id].processed = Some(self.now);
            self.note_settled(html_id);
            self.paint(html_id);
            if html_id == 0 {
                // Iframes and deferred work may start now.
                let frames: Vec<ResourceId> = self
                    .page
                    .resources
                    .iter()
                    .filter(|r| {
                        r.kind == ResourceKind::Html
                            && r.id != 0
                            && self.rstate[r.id].fetched.is_some()
                            && self.html.contains_key(&r.id)
                            && !self.html[&r.id].done
                            && self.html[&r.id].next == 0
                            && !self.html[&r.id].blocked
                    })
                    .map(|r| r.id)
                    .collect();
                for f in frames {
                    self.cpu.push(CLASS_DEFER, Task::HtmlSegment { html: f });
                }
            }
            self.check_done();
            return;
        }
        match &parse.plan[parse.next] {
            Segment::Parse { .. } => {
                self.cpu
                    .push(parser_class(html_id), Task::HtmlSegment { html: html_id });
            }
            Segment::AwaitScript { js, .. } => {
                // The parser discovers the script tag at this position.
                let js = *js;
                self.html.get_mut(&html_id).expect("exists").blocked = true;
                self.discover(js);
                self.try_unblock_parser(html_id);
            }
        }
        self.try_run_cpu();
    }

    // ------------------------------------------------------------------- CPU

    fn try_run_cpu(&mut self) {
        if self.cpu.running.is_some() {
            return;
        }
        let Some((_, _, task)) = self.cpu.ready.pop_front() else {
            return;
        };
        let duration = match &task {
            Task::HtmlSegment { html } => {
                let parse = &self.html[html];
                match &parse.plan[parse.next] {
                    Segment::Parse {
                        duration,
                        discoveries,
                    } => {
                        // Schedule discoveries at their positions.
                        for (id, frac) in discoveries {
                            let at = self.now + duration.mul_f64(*frac);
                            self.queue.schedule(at, Ev::Discover { id: *id });
                        }
                        *duration
                    }
                    Segment::AwaitScript { .. } => {
                        unreachable!("AwaitScript never enqueued as HtmlSegment")
                    }
                }
            }
            Task::ExecJs { id, .. } | Task::ParseCss { id } | Task::Decode { id } => {
                self.page.resources[*id]
                    .cpu_cost
                    .mul_f64(self.cfg.cpu_factor)
            }
        };
        let end = self.now + duration;
        self.cpu.running = Some((task, end));
        self.queue.schedule(end, Ev::CpuDone);
    }

    fn on_cpu_done(&mut self) {
        let Some((task, end)) = self.cpu.running.take() else {
            return;
        };
        debug_assert_eq!(end, self.now);
        match task {
            Task::HtmlSegment { html } => {
                self.continue_parse(html);
            }
            Task::ExecJs { id, resumes } => {
                // Children of scripts are discovered when execution finishes.
                self.processed(id);
                if let Some(html) = resumes {
                    self.continue_parse(html);
                }
                self.check_done();
            }
            Task::ParseCss { id } => {
                self.processed(id);
                self.paint(id);
                self.on_css_processed();
                self.check_done();
            }
            Task::Decode { id } => self.decoded(id),
        }
        self.try_run_cpu();
    }

    /// `id` finished processing: settle it and discover its children.
    fn processed(&mut self, id: ResourceId) {
        self.rstate[id].processed = Some(self.now);
        self.note_settled(id);
        self.discover_children(id);
    }

    /// A leaf resource finished decoding and paints.
    fn decoded(&mut self, id: ResourceId) {
        self.processed(id);
        self.paint(id);
        self.check_done();
    }

    fn on_stage_open(&mut self, tier: u8) {
        self.stage_kick_queued = false;
        self.current_stage = tier;
        self.stage_outstanding.clear();
        let batch: Vec<Target> = self.staged[tier as usize].drain(..).collect();
        self.stage_outstanding.extend(batch.iter().copied());
        for t in batch {
            self.request(t);
        }
        // If this tier was empty, advance again.
        self.maybe_kick_stage();
    }

    // ------------------------------------------------------------- rendering

    fn paint(&mut self, id: ResourceId) {
        let r = &self.page.resources[id];
        if r.above_fold && r.visual_weight > 0.0 {
            self.paints.push((self.now, r.visual_weight));
        } else if id == 0 {
            self.paints.push((self.now, r.visual_weight.max(0.1)));
        }
    }

    // -------------------------------------------------------------- done/link

    /// Whether some ancestor document/script of `id` exhausted its retry
    /// budget. Such a resource may still have been pushed and fetched, but
    /// the machinery that would process it (its document's parser, its
    /// parent's evaluation) will never run.
    fn ancestor_failed(&self, id: ResourceId) -> bool {
        let mut cur = self.page.resources[id].parent;
        while let Some(p) = cur {
            if self.rstate[p].failed {
                return true;
            }
            cur = self.page.resources[p].parent;
        }
        false
    }

    /// Count `id` settled, once: onload stops waiting on it.
    fn settle(&mut self, id: ResourceId) {
        let st = &mut self.rstate[id];
        if !st.settled {
            st.settled = true;
            self.settled_cnt += 1;
        }
    }

    /// Settle `id` if it is fetched and processed (the network-bound load
    /// processes nothing). Call it after every `fetched`/`processed`
    /// transition.
    fn note_settled(&mut self, id: ResourceId) {
        let st = &self.rstate[id];
        if st.fetched.is_some() && (st.processed.is_some() || self.cfg.network_bound) {
            self.settle(id);
        }
    }

    /// Settle every discovered descendant of the failed resource `id`:
    /// orphaned, even if a push delivered its bytes, because nothing will
    /// ever execute it.
    fn settle_orphans(&mut self, id: ResourceId) {
        for k in self.child_start[id]..self.child_start[id + 1] {
            let child = self.child_ids[k];
            if self.rstate[child].discovered.is_some() {
                self.settle(child);
            }
            self.settle_orphans(child);
        }
    }

    /// Onload fires once every discovered resource has settled. A resource
    /// the load never surfaced (e.g. the child of a failed script) cannot
    /// gate it; neither can one whose retry budget is spent — real
    /// browsers fire onload around failed subresources — nor one orphaned
    /// below a failed ancestor.
    fn check_done(&mut self) {
        if !self.finished && self.settled_cnt == self.discovered_cnt {
            self.finished = true;
            self.plt = self.now;
        }
    }

    // ------------------------------------------------------ fault recovery

    /// A fetch attempt for `id` died (RST_STREAM, GOAWAY, or timeout).
    /// Back off and retry while the budget allows; degrade otherwise.
    fn retry_or_fail(&mut self, id: ResourceId) {
        let st = &mut self.rstate[id];
        if st.fetched.is_some() || st.failed {
            return;
        }
        st.first_requested = st.first_requested.or(st.requested);
        st.requested = None;
        st.in_flight = false;
        if RETRY.allows(st.attempts) {
            st.retrying = true;
            let backoff = RETRY.backoff(st.attempts);
            self.retries += 1;
            self.queue.schedule(self.now + backoff, Ev::Retry { id });
        } else {
            self.mark_failed(id);
        }
        if self.cfg.fetch_policy == FetchPolicy::VroomStaged {
            self.maybe_kick_stage();
        }
    }

    /// Retry budget exhausted: settle the resource and its discovered
    /// descendants, and unblock anything that was waiting on it so the load
    /// still terminates.
    fn mark_failed(&mut self, id: ResourceId) {
        let st = &mut self.rstate[id];
        if st.failed || st.fetched.is_some() {
            return;
        }
        st.failed = true;
        self.settle(id);
        self.settle_orphans(id);
        if let Some(html) = self.blocking_parser_of(id) {
            self.try_unblock_parser(html);
        }
        if self.page.resources[id].kind == ResourceKind::Css {
            // Scripts gated on this stylesheet must not wait forever.
            self.on_css_processed();
        }
        self.check_done();
    }

    /// A response the browser was waiting on was delivered, or died (a
    /// truncated body, a dropped connection, or a request that reached a
    /// dead one).
    fn on_response(&mut self, target: Target, delivered: bool) {
        match target {
            Target::Real(id) => {
                self.rstate[id].in_flight = false;
                match delivered {
                    true => self.finish_fetch(target),
                    false => self.retry_or_fail(id),
                }
            }
            // A wasted (false-positive) fetch is abandoned either way, never
            // retried.
            Target::Waste { size, .. } => {
                self.wasted_bytes += size;
                if self.cfg.fetch_policy == FetchPolicy::VroomStaged {
                    self.maybe_kick_stage();
                }
            }
        }
    }

    /// Per-request timeout. If the transport can reset the attempt's
    /// stream, back off. If the request or response is propagating between
    /// places a reset reaches, re-check shortly — it must land somewhere
    /// or deliver.
    fn on_fetch_timeout(&mut self, id: ResourceId, attempt: u32) {
        let st = &self.rstate[id];
        if st.fetched.is_some() || st.failed || st.attempts != attempt || st.requested.is_none() {
            return;
        }
        if self.net.abort(&mut self.queue, self.now, id) {
            self.timeouts += 1;
            self.retry_or_fail(id);
        } else {
            self.queue.schedule(
                self.now + SimDuration::from_millis(100),
                Ev::FetchTimeout { id, attempt },
            );
        }
    }

    /// The server promised a push of `p`. Accept it unless the client
    /// already has, awaits or caches the resource; an accepted push reveals
    /// its URL (recording no discovery time) and counts as a fetch attempt.
    fn claim_push(&mut self, p: &Hint) -> Option<Req> {
        let Some(id) = self.res_of(p.url) else {
            let (url, size) = (p.url, p.size_hint);
            let target = Target::Waste { url, size };
            return Some(Req { target, attempt: 0 });
        };
        let st = &self.rstate[id];
        if st.fetched.is_some() || st.in_flight || st.requested.is_some() {
            return None; // client already has/requested it
        }
        // Cached at client: servers skip these pushes.
        if self.warm[id].is_some_and(|e| e.fresh()) {
            return None;
        }
        self.mark_discovered(id, false);
        let st = &mut self.rstate[id];
        st.in_flight = true;
        st.pushed = true;
        st.requested = Some(self.now);
        self.start_attempt(id);
        let attempt = self.rstate[id].attempts;
        Some(Req {
            target: Target::Real(id),
            attempt,
        })
    }

    /// Act on what the transport reports for one of its events.
    fn on_net(&mut self, ev: NetEv) {
        match self.net.handle(&mut self.queue, self.now, ev) {
            Heard::Nothing => {}
            Heard::Hints(hints) => self.on_hints(hints),
            Heard::Delivered(target) => self.on_response(target, true),
            Heard::Failed(target) => self.on_response(target, false),
            Heard::Promised(pushes, then) => {
                for p in pushes {
                    if let Some(req) = self.claim_push(p) {
                        self.net.push(&mut self.queue, self.now, then, req);
                    }
                }
                self.net.finish(&mut self.queue, self.now, then);
            }
            Heard::Dropped(lost, then) => {
                for target in lost {
                    self.on_response(target, false);
                }
                self.net.finish(&mut self.queue, self.now, then);
            }
        }
    }

    // ----------------------------------------------------------------- events

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Net(ev) => self.on_net(ev),
            Ev::CpuDone => self.on_cpu_done(),
            Ev::Discover { id } => {
                if self.rstate[id].discovered.is_some() {
                    self.parser_demands(id);
                } else {
                    self.discover(id);
                }
            }
            Ev::StageOpen { tier } => self.on_stage_open(tier),
            Ev::FetchTimeout { id, attempt } => self.on_fetch_timeout(id, attempt),
            Ev::Retry { id } => {
                let st = &mut self.rstate[id];
                if st.fetched.is_some() || st.failed || st.requested.is_some() {
                    return;
                }
                st.retrying = false;
                self.request(Target::Real(id));
            }
            Ev::DecodeDone { id } => self.decoded(id),
        }
    }

    // ----------------------------------------------------------------- result

    fn result(&self) -> LoadResult {
        let t0 = SimTime::ZERO;
        let plt = self.plt - t0;
        // Visual metrics from paint events.
        let total_weight: f64 = self
            .page
            .resources
            .iter()
            .filter(|r| (r.above_fold && r.visual_weight > 0.0) || r.id == 0)
            .map(|r| {
                if r.id == 0 {
                    r.visual_weight.max(0.1)
                } else {
                    r.visual_weight
                }
            })
            .sum();
        // vroom-lint: allow(hot-path-alloc) -- end-of-load metric computation, runs once per page load
        let mut paints = self.paints.clone();
        paints.sort_by_key(|(t, _)| *t);
        let aft = paints.last().map(|(t, _)| *t - t0).unwrap_or(plt);
        let mut si = 0.0;
        let mut covered = 0.0;
        let mut prev = SimTime::ZERO;
        for (t, w) in &paints {
            let c = if total_weight > 0.0 {
                covered / total_weight
            } else {
                1.0
            };
            si += (1.0 - c) * (*t - prev).as_millis_f64();
            covered += w;
            prev = *t;
        }
        let resources: Vec<ResourceTiming> = self
            .rstate
            .iter()
            .map(|st| ResourceTiming {
                discovered: st.discovered.unwrap_or(SimTime::ZERO),
                requested: st.first_requested.or(st.requested),
                fetched: st.fetched.unwrap_or(self.plt),
                processed: st.processed,
                from_cache: st.from_cache,
                pushed: st.pushed,
                failed: st.failed,
            })
            .collect();
        let failed_resources = resources.iter().filter(|r| r.failed).count();
        LoadResult {
            plt,
            aft,
            speed_index: si,
            discovery_all: self.discovery_all - t0,
            discovery_high: self.discovery_high - t0,
            fetch_all: self.fetch_all - t0,
            fetch_high: self.fetch_high - t0,
            cpu_busy: self.cpu_busy,
            network_wait: self.network_wait,
            useful_bytes: self.useful_bytes,
            wasted_bytes: self.wasted_bytes,
            cache_hits: self.cache_hits,
            rst_streams: self.net.rst_streams,
            goaways: self.net.goaways,
            retries: self.retries,
            timeouts: self.timeouts,
            failed_resources,
            resources,
        }
    }
}
