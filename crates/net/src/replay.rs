//! A Mahimahi-style record/replay store (paper §5, §6.1).
//!
//! Mahimahi records every HTTP response during a live page load and replays
//! them from local shells, shaping traffic with the recorded per-server RTTs.
//! Our equivalent stores one [`RecordedResponse`] per URL, serializable to
//! JSON so corpora can be saved, inspected, and replayed bit-identically.
//!
//! URLs are interned: the store owns a [`UrlTable`] and keeps responses in a
//! dense `Vec` indexed by [`UrlId`], so the hot replay `lookup` is one
//! intern-table probe (or, via [`ReplayStore::lookup_id`], a bare index)
//! instead of a `BTreeMap<Url, _>` walk over three-string keys.
//!
//! A body is served from borrowed views ([`RecordedResponse::body_pieces`]):
//! a literal body is an `Arc<str>` read in place, and a synthetic one is a
//! size whose bytes are slices of one static filler table. Serving either
//! allocates nothing and copies nothing before the framer's one copy into
//! its send buffer. [`RecordedResponse::body_bytes`] assembles a whole body
//! for callers that compare or keep it. Serialization still iterates in
//! URL sort order, so corpus JSON is byte-identical to the pre-interning
//! format.

use crate::json::{self, Value};
use crate::latency::LatencyModel;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use vroom_html::{ResourceKind, Url};
use vroom_intern::{UrlId, UrlTable};
use vroom_sim::SimDuration;

/// The period of every synthetic body: the body is this string repeated
/// and cut to the recorded size.
const FILLER_PERIOD: &[u8; 20] = b"vroom-replay-filler.";

/// The most bytes of a synthetic body one borrowed view carries: one
/// default-size HTTP/2 DATA frame.
const FILLER_SPAN: usize = 16 * 1024;

/// The synthetic filler, laid out once: [`FILLER_SPAN`] bytes plus one
/// period, so a view of up to `FILLER_SPAN` bytes at any offset into a
/// synthetic body is one slice of this table, starting at the offset's
/// phase in the period.
static FILLER: [u8; FILLER_SPAN + FILLER_PERIOD.len()] = filler();

const fn filler() -> [u8; FILLER_SPAN + FILLER_PERIOD.len()] {
    let mut table = [0u8; FILLER_SPAN + FILLER_PERIOD.len()];
    let mut i = 0;
    while i < table.len() {
        table[i] = FILLER_PERIOD[i % FILLER_PERIOD.len()];
        i += 1;
    }
    table
}

/// One recorded HTTP exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedResponse {
    /// The response's content class.
    pub kind: ResourceKind,
    /// Body size in bytes. A response without a literal body is synthetic:
    /// its bytes are `vroom-replay-filler.` repeated to this size, read
    /// from a static table by offset and never stored.
    pub size: u64,
    /// Status code.
    pub status: u16,
    /// Freshness lifetime; `None` means uncacheable.
    pub max_age: Option<SimDuration>,
    /// Literal body, if the recording kept one (HTML usually does, so the
    /// online analyzer can re-scan it; images usually don't). Shared:
    /// cloning the response shares the body storage.
    pub body: Option<Arc<str>>,
}

impl RecordedResponse {
    /// A cacheable 200 of the given kind and size, no stored body.
    pub fn synthetic(kind: ResourceKind, size: u64) -> Self {
        RecordedResponse {
            kind,
            size,
            status: 200,
            max_age: Some(SimDuration::from_secs(3600)),
            body: None,
        }
    }

    /// A 200 with a literal body (size derived from it).
    pub fn with_body(kind: ResourceKind, body: impl Into<String>) -> Self {
        let body = body.into();
        RecordedResponse {
            kind,
            size: body.len() as u64,
            status: 200,
            max_age: Some(SimDuration::from_secs(3600)),
            body: Some(Arc::from(body)),
        }
    }

    /// Mark the response uncacheable.
    pub fn uncacheable(mut self) -> Self {
        self.max_age = None;
        self
    }

    /// Length of the body served: the literal body's, or the recorded size
    /// of a synthetic one.
    pub fn body_len(&self) -> usize {
        match &self.body {
            Some(b) => b.len(),
            None => self.size as usize,
        }
    }

    /// The body's bytes from `offset` on, borrowed: the rest of a literal
    /// body, or at most `FILLER_SPAN` bytes of a synthetic one, sliced from
    /// the filler table. Empty at or past the end.
    fn body_from(&self, offset: usize) -> &[u8] {
        match &self.body {
            Some(b) => b.as_bytes().get(offset..).unwrap_or_default(),
            None => {
                let len = self.body_len().saturating_sub(offset).min(FILLER_SPAN);
                let phase = offset % FILLER_PERIOD.len();
                FILLER.get(phase..phase + len).unwrap_or_default()
            }
        }
    }

    /// The body's bytes in `start..end` (cut to the body), as borrowed
    /// views in order: a literal body's range is one piece of the recorded
    /// string, and a synthetic one's is pieces of up to 16 KiB, each one
    /// slice of the filler table.
    pub fn body_pieces(&self, start: usize, end: usize) -> impl Iterator<Item = &[u8]> {
        let end = end.min(self.body_len());
        let mut at = start;
        std::iter::from_fn(move || {
            let piece = self.body_from(at);
            let piece = piece.get(..end.saturating_sub(at).min(piece.len()))?;
            at += piece.len();
            (!piece.is_empty()).then_some(piece)
        })
    }

    /// The whole body in one buffer: the literal one shares the recorded
    /// allocation; a synthetic one is assembled from the filler table.
    pub fn body_bytes(&self) -> Arc<[u8]> {
        match &self.body {
            Some(b) => Arc::from(Arc::clone(b)),
            None => self
                .body_pieces(0, self.body_len())
                .collect::<Vec<_>>()
                .concat()
                .into(),
        }
    }
}

/// A recorded page-load corpus: URL → response, plus the latency environment
/// observed at record time.
#[derive(Debug, Clone, Default)]
pub struct ReplayStore {
    /// Intern table over every recorded URL (and any URL a caller interns
    /// alongside, e.g. hint targets the wire server resolves against the
    /// same table).
    urls: UrlTable,
    /// Responses indexed by `UrlId`. `None` for ids interned without a
    /// recording.
    responses: Vec<Option<RecordedResponse>>,
    /// Per-domain wired RTTs observed while recording, ordered.
    pub server_rtts: BTreeMap<String, SimDuration>,
}

impl ReplayStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or overwrite) a response.
    pub fn record(&mut self, url: Url, response: RecordedResponse) {
        let id = self.urls.intern(url);
        if self.responses.len() <= id.index() {
            self.responses.resize(id.index() + 1, None);
        }
        self.responses[id.index()] = Some(response);
    }

    /// Record the wired RTT to a domain.
    pub fn record_rtt(&mut self, domain: impl Into<String>, rtt: SimDuration) {
        self.server_rtts.insert(domain.into(), rtt);
    }

    /// Look up a response by URL: one intern-table probe, then an index.
    pub fn lookup(&self, url: &Url) -> Option<&RecordedResponse> {
        self.lookup_id(self.urls.lookup(url)?)
    }

    /// Look up a response by interned id: a bare `Vec` index.
    pub fn lookup_id(&self, id: UrlId) -> Option<&RecordedResponse> {
        self.responses.get(id.index())?.as_ref()
    }

    /// The id of a recorded URL, if any.
    pub fn id_of(&self, url: &Url) -> Option<UrlId> {
        let id = self.urls.lookup(url)?;
        self.lookup_id(id).map(|_| id)
    }

    /// The store's intern table (shared with callers that resolve ids
    /// against recorded URLs, e.g. the wire server's hint sets).
    pub fn urls(&self) -> &UrlTable {
        &self.urls
    }

    /// Mutable access to the intern table, for callers that need to intern
    /// additional URLs (hint targets) before sharing the store.
    pub fn urls_mut(&mut self) -> &mut UrlTable {
        &mut self.urls
    }

    /// Number of recorded URLs.
    pub fn len(&self) -> usize {
        self.responses.iter().filter(|r| r.is_some()).count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overlay the recorded RTTs onto a latency model (the paper's replay
    /// shaping: cellular delay + recorded per-server RTT).
    pub fn apply_rtts(&self, latency: &mut LatencyModel) {
        for (domain, rtt) in &self.server_rtts {
            latency.set_server_rtt(domain.clone(), *rtt);
        }
    }

    /// Serialize to pretty JSON. Output is canonical: keys are sorted (by
    /// URL, not intern order), so the same corpus always produces the same
    /// bytes regardless of recording order.
    pub fn to_json(&self) -> String {
        let responses = self
            .urls
            .iter_sorted()
            .filter_map(|(url, id)| {
                self.lookup_id(id)
                    .map(|r| (url.to_string(), encode_response(r)))
            })
            .collect();
        let rtts = self
            .server_rtts
            .iter()
            .map(|(domain, rtt)| (domain.clone(), Value::Int(rtt.as_nanos())))
            .collect();
        let mut root = BTreeMap::new();
        root.insert("responses".to_string(), Value::Object(responses));
        root.insert("server_rtts".to_string(), Value::Object(rtts));
        let mut out = Value::Object(root).to_pretty();
        out.push('\n');
        out
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, json::Error> {
        let root = Value::parse(s)?;
        let mut store = ReplayStore::new();
        let responses = root
            .get("responses")
            .and_then(Value::as_object)
            .ok_or_else(|| json::Error::custom("missing \"responses\" object"))?;
        for (url, v) in responses {
            let url = Url::parse(url)
                .ok_or_else(|| json::Error::custom(format!("invalid url {url:?}")))?;
            store.record(url, decode_response(v)?);
        }
        let rtts = root
            .get("server_rtts")
            .and_then(Value::as_object)
            .ok_or_else(|| json::Error::custom("missing \"server_rtts\" object"))?;
        for (domain, v) in rtts {
            let nanos = v
                .as_u64()
                .ok_or_else(|| json::Error::custom(format!("bad rtt for {domain:?}")))?;
            store.record_rtt(domain.clone(), SimDuration::from_nanos(nanos));
        }
        Ok(store)
    }

    /// Save to a file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from a file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

fn kind_name(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Html => "Html",
        ResourceKind::Css => "Css",
        ResourceKind::Js => "Js",
        ResourceKind::Image => "Image",
        ResourceKind::Font => "Font",
        ResourceKind::Media => "Media",
        ResourceKind::Xhr => "Xhr",
        ResourceKind::Other => "Other",
    }
}

fn kind_from_name(name: &str) -> Option<ResourceKind> {
    Some(match name {
        "Html" => ResourceKind::Html,
        "Css" => ResourceKind::Css,
        "Js" => ResourceKind::Js,
        "Image" => ResourceKind::Image,
        "Font" => ResourceKind::Font,
        "Media" => ResourceKind::Media,
        "Xhr" => ResourceKind::Xhr,
        "Other" => ResourceKind::Other,
        _ => return None,
    })
}

fn encode_response(r: &RecordedResponse) -> Value {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert(
        "kind".to_string(),
        Value::Str(kind_name(r.kind).to_string()),
    );
    obj.insert("size".to_string(), Value::Int(r.size));
    obj.insert("status".to_string(), Value::Int(r.status as u64));
    obj.insert(
        "max_age".to_string(),
        match r.max_age {
            Some(d) => Value::Int(d.as_nanos()),
            None => Value::Null,
        },
    );
    obj.insert(
        "body".to_string(),
        match &r.body {
            Some(b) => Value::Str(b.to_string()),
            None => Value::Null,
        },
    );
    Value::Object(obj)
}

fn decode_response(v: &Value) -> Result<RecordedResponse, json::Error> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| json::Error::custom(format!("response missing {name:?}")))
    };
    let kind_str = field("kind")?
        .as_str()
        .ok_or_else(|| json::Error::custom("\"kind\" must be a string"))?;
    let kind = kind_from_name(kind_str)
        .ok_or_else(|| json::Error::custom(format!("unknown kind {kind_str:?}")))?;
    let size = field("size")?
        .as_u64()
        .ok_or_else(|| json::Error::custom("\"size\" must be an integer"))?;
    let status = field("status")?
        .as_u64()
        .ok_or_else(|| json::Error::custom("\"status\" must be an integer"))?;
    let max_age = match field("max_age")? {
        Value::Null => None,
        other => Some(SimDuration::from_nanos(other.as_u64().ok_or_else(
            || json::Error::custom("\"max_age\" must be null or an integer"),
        )?)),
    };
    let body = match field("body")? {
        Value::Null => None,
        other => Some(Arc::from(other.as_str().ok_or_else(|| {
            json::Error::custom("\"body\" must be null or a string")
        })?)),
    };
    Ok(RecordedResponse {
        kind,
        size,
        status: status as u16,
        max_age,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayStore {
        let mut store = ReplayStore::new();
        store.record(
            Url::https("news.com", "/"),
            RecordedResponse::with_body(
                ResourceKind::Html,
                "<html><script src=/app.js></script></html>",
            ),
        );
        store.record(
            Url::https("news.com", "/app.js"),
            RecordedResponse::synthetic(ResourceKind::Js, 40_000),
        );
        store.record(
            Url::https("cdn.net", "/hero.jpg"),
            RecordedResponse::synthetic(ResourceKind::Image, 300_000).uncacheable(),
        );
        store.record_rtt("news.com", SimDuration::from_millis(25));
        store.record_rtt("cdn.net", SimDuration::from_millis(5));
        store
    }

    #[test]
    fn lookup_and_domain_iteration() {
        let store = sample();
        assert_eq!(store.len(), 3);
        let html = store.lookup(&Url::https("news.com", "/")).unwrap();
        assert_eq!(html.kind, ResourceKind::Html);
        assert!(html.body.is_some());
        assert!(store.lookup(&Url::https("news.com", "/missing")).is_none());
    }

    #[test]
    fn lookup_by_id_matches_lookup_by_url() {
        let store = sample();
        let url = Url::https("news.com", "/app.js");
        let id = store.id_of(&url).unwrap();
        assert_eq!(store.lookup_id(id), store.lookup(&url));
        assert_eq!(store.urls().get(id), &url);
        assert!(store.id_of(&Url::https("news.com", "/missing")).is_none());
    }

    #[test]
    fn interned_ids_without_recordings_are_invisible() {
        let mut store = sample();
        let extra = store.urls_mut().intern(Url::https("news.com", "/hinted"));
        assert!(store.lookup_id(extra).is_none());
        assert_eq!(store.len(), 3, "unrecorded ids don't count");
        assert!(!store.to_json().contains("/hinted"));
    }

    #[test]
    fn json_roundtrip() {
        let store = sample();
        let json = store.to_json();
        let back = ReplayStore::from_json(&json).unwrap();
        assert_eq!(back.len(), store.len());
        assert_eq!(
            back.lookup(&Url::https("cdn.net", "/hero.jpg")),
            store.lookup(&Url::https("cdn.net", "/hero.jpg"))
        );
        assert_eq!(back.server_rtts, store.server_rtts);
    }

    #[test]
    fn file_roundtrip() {
        let store = sample();
        let dir = std::env::temp_dir().join("vroom-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        store.save(&path).unwrap();
        let back = ReplayStore::load(&path).unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synthetic_bodies_match_recorded_size() {
        let r = RecordedResponse::synthetic(ResourceKind::Image, 12_345);
        assert_eq!(r.body_bytes().len(), 12_345);
        let r0 = RecordedResponse::synthetic(ResourceKind::Image, 0);
        assert!(r0.body_bytes().is_empty());
        assert!(r0.body_from(0).is_empty());
        assert_eq!(r0.body_pieces(0, 10).count(), 0);
    }

    #[test]
    fn synthetic_views_repeat_the_period_at_every_offset() {
        let span = FILLER_SPAN;
        for size in [1, 19, 20, 21, span - 1, span, span + 1, 3 * span + 7] {
            let r = RecordedResponse::synthetic(ResourceKind::Image, size as u64);
            let whole = r.body_bytes();
            assert_eq!(whole.len(), size);
            assert!(whole
                .iter()
                .enumerate()
                .all(|(i, &b)| b == FILLER_PERIOD[i % FILLER_PERIOD.len()]));
            for offset in [0, 1, 19, 20, 21, span - 1, span, span + 1, size - 1, size] {
                let offset = offset.min(size);
                let view = r.body_from(offset);
                assert_eq!(view.len(), (size - offset).min(span), "{size} @ {offset}");
                assert_eq!(view, &whole[offset..offset + view.len()]);
                for end in [offset, offset + 1, offset + span + 3, size] {
                    let pieces: Vec<&[u8]> = r.body_pieces(offset, end).collect();
                    assert!(pieces.iter().all(|p| !p.is_empty() && p.len() <= span));
                    let end = end.clamp(offset, size);
                    assert_eq!(
                        pieces.concat(),
                        &whole[offset..end],
                        "{size} {offset}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn literal_bodies_are_one_piece_read_in_place() {
        let r = RecordedResponse::with_body(ResourceKind::Html, "<html></html>");
        assert_eq!(r.body_len(), 13);
        assert_eq!(r.body_from(6), b"</html>");
        let pieces: Vec<&[u8]> = r.body_pieces(1, 100).collect();
        assert_eq!(pieces, vec![&b"html></html>"[..]]);
        assert_eq!(
            pieces[0].as_ptr(),
            r.body.as_ref().unwrap()[1..].as_ptr(),
            "borrowed from the recorded body"
        );
    }

    #[test]
    fn literal_bodies_are_shared_not_copied() {
        let r = RecordedResponse::with_body(ResourceKind::Html, "<html></html>");
        let a = r.body_bytes();
        let b = r.body_bytes();
        assert!(Arc::ptr_eq(&a, &b), "same allocation");
        assert_eq!(
            a.as_ptr(),
            r.body.as_ref().unwrap().as_ptr(),
            "shares the recorded body's storage"
        );
    }

    #[test]
    fn rtts_overlay_latency_model() {
        let store = sample();
        let mut latency =
            LatencyModel::uniform(SimDuration::from_millis(60), SimDuration::from_millis(99));
        store.apply_rtts(&mut latency);
        assert_eq!(latency.rtt("news.com").as_millis(), 85);
        assert_eq!(latency.rtt("cdn.net").as_millis(), 65);
        assert_eq!(latency.rtt("other.org").as_millis(), 159, "default");
    }
}
