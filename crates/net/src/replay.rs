//! A Mahimahi-style replay store (paper §5, §6.1): the recorded page the
//! real-wire server (`vroom-server::wire`) serves.
//!
//! Mahimahi records every HTTP response during a live page load and replays
//! them from local shells. Our equivalent keeps one [`RecordedResponse`] per
//! URL: its content class and its body, which is either the recorded text
//! (HTML, so the online analyzer can re-scan it) or a synthetic length.
//! Simulated loads read no store: each loads a `vroom-pages` snapshot over
//! its profile's RTT.
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
//! for callers that compare or keep it.

use std::sync::Arc;
use vroom_html::{ResourceKind, Url};
use vroom_intern::{UrlId, UrlTable};

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

/// A recorded body.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// The recorded text (HTML keeps it, so the online analyzer can
    /// re-scan it). Shared: cloning the response shares the storage.
    Literal(Arc<str>),
    /// A body of this many bytes: `vroom-replay-filler.` repeated, read
    /// from a static table by offset and never stored.
    Synthetic(u64),
}

/// One recorded HTTP exchange: a 200 of `kind` carrying `body`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedResponse {
    /// The response's content class.
    pub kind: ResourceKind,
    /// The response's body.
    pub body: Body,
}

impl RecordedResponse {
    /// A response of the given kind and size, no stored body.
    pub fn synthetic(kind: ResourceKind, size: u64) -> Self {
        RecordedResponse {
            kind,
            body: Body::Synthetic(size),
        }
    }

    /// A response with a literal body.
    pub fn with_body(kind: ResourceKind, body: impl Into<String>) -> Self {
        RecordedResponse {
            kind,
            body: Body::Literal(Arc::from(body.into())),
        }
    }

    /// Length of the body served: the literal body's, or the recorded size
    /// of a synthetic one.
    pub fn body_len(&self) -> usize {
        match self.body {
            Body::Literal(ref text) => text.len(),
            Body::Synthetic(size) => size as usize,
        }
    }

    /// The body's bytes from `offset` on, borrowed: the rest of a literal
    /// body, or at most `FILLER_SPAN` bytes of a synthetic one, sliced from
    /// the filler table. Empty at or past the end.
    fn body_from(&self, offset: usize) -> &[u8] {
        match &self.body {
            Body::Literal(text) => text.as_bytes().get(offset..).unwrap_or_default(),
            Body::Synthetic(_) => {
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
            Body::Literal(text) => Arc::from(Arc::clone(text)),
            Body::Synthetic(_) => self
                .body_pieces(0, self.body_len())
                .collect::<Vec<_>>()
                .concat()
                .into(),
        }
    }
}

/// A recorded page-load corpus: URL → response.
#[derive(Debug, Clone, Default)]
pub struct ReplayStore {
    /// Intern table over every recorded URL (and any URL a caller interns
    /// alongside, e.g. hint targets the wire server resolves against the
    /// same table).
    urls: UrlTable,
    /// Responses indexed by `UrlId`. `None` for ids interned without a
    /// recording.
    responses: Vec<Option<RecordedResponse>>,
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
            RecordedResponse::synthetic(ResourceKind::Image, 300_000),
        );
        store
    }

    #[test]
    fn lookup_and_domain_iteration() {
        let store = sample();
        assert_eq!(store.len(), 3);
        let html = store.lookup(&Url::https("news.com", "/")).unwrap();
        assert_eq!(html.kind, ResourceKind::Html);
        assert!(matches!(html.body, Body::Literal(_)));
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
        let Body::Literal(text) = &r.body else {
            panic!("a literal body")
        };
        assert_eq!(r.body_len(), 13);
        assert_eq!(r.body_from(6), b"</html>");
        let pieces: Vec<&[u8]> = r.body_pieces(1, 100).collect();
        assert_eq!(pieces, vec![&b"html></html>"[..]]);
        assert_eq!(
            pieces[0].as_ptr(),
            text[1..].as_ptr(),
            "borrowed from the recorded body"
        );
    }

    #[test]
    fn literal_bodies_are_shared_not_copied() {
        let r = RecordedResponse::with_body(ResourceKind::Html, "<html></html>");
        let Body::Literal(text) = &r.body else {
            panic!("a literal body")
        };
        let a = r.body_bytes();
        let b = r.body_bytes();
        assert!(Arc::ptr_eq(&a, &b), "same allocation");
        assert_eq!(
            a.as_ptr(),
            text.as_ptr(),
            "shares the recorded body's storage"
        );
    }
}
