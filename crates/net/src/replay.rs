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
//! instead of a `BTreeMap<Url, _>` walk over three-string keys. Bodies are
//! `Arc<str>`s and are served as `Arc<[u8]>` views of the same allocation
//! ([`RecordedResponse::body_bytes`]): cloning or serving a recorded body
//! is a refcount bump, never a byte copy. Serialization still iterates in
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

/// One recorded HTTP exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedResponse {
    /// The response's content class.
    pub kind: ResourceKind,
    /// Body size in bytes (synthetic bodies are regenerated on demand).
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

    /// The body to serve: the literal one (zero-copy — the returned buffer
    /// shares the recorded allocation), or a deterministic synthetic body of
    /// the recorded size (for wire demos serving non-HTML content).
    pub fn body_bytes(&self) -> Arc<[u8]> {
        match &self.body {
            Some(b) => Arc::from(Arc::clone(b)),
            None => {
                let mut out = Vec::with_capacity(self.size as usize);
                let pattern = b"vroom-replay-filler.";
                while out.len() < self.size as usize {
                    let take = pattern.len().min(self.size as usize - out.len());
                    let Some(chunk) = pattern.get(..take) else {
                        break;
                    };
                    out.extend_from_slice(chunk);
                }
                Arc::from(out)
            }
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
