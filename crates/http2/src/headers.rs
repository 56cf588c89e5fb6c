//! Typed request/response header lists over raw HPACK fields, including the
//! pseudo-header rules of RFC 7540 §8.1.2 and the Vroom hint headers the
//! paper adds (Table 1). Every string is an `Arc<str>` shared with the
//! HPACK fields it came from or goes to (`Arc::clone`, never a copy).

use crate::error::ConnectionError;
use std::sync::{Arc, OnceLock};
use vroom_hpack::HeaderField;

/// Vroom's dependency-hint header names (paper Table 1), in decreasing
/// priority order. `link` carries `rel=preload` entries for resources that
/// must be processed; the two `x-` headers are Vroom's extensions.
pub mod hint_headers {
    /// Highest priority: resources to be processed (HTML/CSS/JS).
    pub const LINK: &str = "link";
    /// Resources to be processed but lazily fetched (async/defer).
    pub const SEMI_IMPORTANT: &str = "x-semi-important";
    /// Resources that cannot have derived children (images, media).
    pub const UNIMPORTANT: &str = "x-unimportant";
    /// CORS exposure required for a JS scheduler to read the hints
    /// (paper §5.2, footnote 7).
    pub const EXPOSE: &str = "access-control-expose-headers";
}

/// An HTTP request as carried over HTTP/2.
///
/// Pseudo-header values are refcounted `Arc<str>`s, so serializing to
/// HPACK fields and parsing back shares bytes instead of copying them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `:method`.
    pub method: Arc<str>,
    /// `:scheme`.
    pub scheme: Arc<str>,
    /// `:authority` (the domain).
    pub authority: Arc<str>,
    /// `:path`.
    pub path: Arc<str>,
    /// Regular header fields, in order.
    pub headers: Vec<HeaderField>,
}

impl Request {
    /// A GET request for `https://{authority}{path}`.
    pub fn get(authority: impl Into<Arc<str>>, path: impl Into<Arc<str>>) -> Self {
        Request {
            method: "GET".into(),
            scheme: "https".into(),
            authority: authority.into(),
            path: path.into(),
            headers: Vec::new(),
        }
    }

    /// Attach a cookie header (Vroom: only ever for the request's own
    /// domain — the client never shares cross-domain cookies).
    pub fn with_cookie(mut self, cookie: impl Into<Arc<str>>) -> Self {
        self.headers
            .push(HeaderField::sensitive("cookie", cookie.into()));
        self
    }

    /// Attach an arbitrary header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push(HeaderField::new(name, value));
        self
    }

    /// Serialize to an HPACK field list (pseudo-headers first, §8.1.2.1).
    /// Every field shares this request's bytes.
    pub fn to_fields(&self) -> Vec<HeaderField> {
        let mut out = vec![
            HeaderField::new(":method", Arc::clone(&self.method)),
            HeaderField::new(":scheme", Arc::clone(&self.scheme)),
            HeaderField::new(":authority", Arc::clone(&self.authority)),
            HeaderField::new(":path", Arc::clone(&self.path)),
        ];
        // vroom-lint: allow(hot-path-alloc) -- HeaderField::clone is two refcount bumps and a flag, never a byte copy
        out.extend(self.headers.iter().cloned());
        out
    }

    /// Parse from an HPACK field list, enforcing pseudo-header rules.
    pub fn from_fields(fields: &[HeaderField]) -> Result<Request, ConnectionError> {
        let (pseudo, regular) = split_pseudo(fields)?;
        let mut method = None;
        let mut scheme = None;
        let mut authority = None;
        let mut path = None;
        for f in pseudo {
            let slot = match &*f.name {
                ":method" => &mut method,
                ":scheme" => &mut scheme,
                ":authority" => &mut authority,
                ":path" => &mut path,
                _ => return Err(ConnectionError::protocol("unknown request pseudo-header")),
            };
            if slot.replace(Arc::clone(&f.value)).is_some() {
                return Err(ConnectionError::protocol("duplicate pseudo-header"));
            }
        }
        Ok(Request {
            method: method.ok_or_else(|| ConnectionError::protocol(":method missing"))?,
            scheme: scheme.ok_or_else(|| ConnectionError::protocol(":scheme missing"))?,
            authority: authority.unwrap_or_default(),
            path: path.ok_or_else(|| ConnectionError::protocol(":path missing"))?,
            headers: regular,
        })
    }
}

/// An HTTP response as carried over HTTP/2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `:status`.
    pub status: u16,
    /// Regular header fields, in order.
    pub headers: Vec<HeaderField>,
}

impl Response {
    /// A 200 response with no headers yet.
    pub fn ok() -> Self {
        Response {
            status: 200,
            headers: Vec::new(),
        }
    }

    /// A response with the given status.
    pub fn with_status(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
        }
    }

    /// Attach a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push(HeaderField::new(name, value));
        self
    }

    /// All values of the named header, in order.
    pub fn header_values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.headers
            .iter()
            .filter(move |f| &*f.name == name)
            .map(|f| &*f.value)
    }

    /// Serialize to an HPACK field list.
    pub fn to_fields(&self) -> Vec<HeaderField> {
        let mut out = vec![HeaderField::new(":status", status_text(self.status))];
        // vroom-lint: allow(hot-path-alloc) -- HeaderField::clone is two refcount bumps and a flag, never a byte copy
        out.extend(self.headers.iter().cloned());
        out
    }

    /// Parse from an HPACK field list.
    pub fn from_fields(fields: &[HeaderField]) -> Result<Response, ConnectionError> {
        let (pseudo, regular) = split_pseudo(fields)?;
        let mut status = None;
        for f in pseudo {
            if &*f.name != ":status" {
                return Err(ConnectionError::protocol("unknown response pseudo-header"));
            }
            if status
                .replace(
                    f.value
                        .parse::<u16>()
                        .map_err(|_| ConnectionError::protocol("bad :status"))?,
                )
                .is_some()
            {
                return Err(ConnectionError::protocol("duplicate :status"));
            }
        }
        Ok(Response {
            status: status.ok_or_else(|| ConnectionError::protocol(":status missing"))?,
            headers: regular,
        })
    }
}

/// `:status` rendering without a per-response allocation for the codes the
/// HPACK static table also carries; anything rarer is rendered per call.
fn status_text(status: u16) -> Arc<str> {
    static COMMON: OnceLock<[(u16, Arc<str>); 7]> = OnceLock::new();
    let common = COMMON.get_or_init(|| {
        [
            (200, "200".into()),
            (204, "204".into()),
            (206, "206".into()),
            (304, "304".into()),
            (400, "400".into()),
            (404, "404".into()),
            (500, "500".into()),
        ]
    });
    match common.iter().find(|(c, _)| *c == status) {
        Some((_, s)) => Arc::clone(s),
        // vroom-lint: allow(hot-path-alloc) -- uncommon status code: rendered once per response, off the cached fast path
        None => Arc::from(status.to_string()),
    }
}

/// Split a field list into (pseudo, regular) enforcing §8.1.2.1: pseudo
/// headers come first and never reappear after a regular field; header
/// names must be lower-case.
fn split_pseudo(
    fields: &[HeaderField],
) -> Result<(Vec<&HeaderField>, Vec<HeaderField>), ConnectionError> {
    let mut pseudo = Vec::new();
    let mut regular = Vec::new();
    let mut seen_regular = false;
    for f in fields {
        if f.name.starts_with(':') {
            if seen_regular {
                return Err(ConnectionError::protocol(
                    "pseudo-header after regular header",
                ));
            }
            pseudo.push(f);
        } else {
            if f.name.chars().any(|c| c.is_ascii_uppercase()) {
                return Err(ConnectionError::protocol("upper-case header name"));
            }
            seen_regular = true;
            // vroom-lint: allow(hot-path-alloc) -- HeaderField::clone is two refcount bumps and a flag, never a byte copy
            regular.push(f.clone());
        }
    }
    Ok((pseudo, regular))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::get("news.example.com", "/story/1.html")
            .with_cookie("session=abc")
            .with_header("user-agent", "vroom/0.1");
        let fields = req.to_fields();
        assert_eq!(&*fields[0].name, ":method");
        let back = Request::from_fields(&fields).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrip_with_hints() {
        let resp = Response::ok()
            .with_header(hint_headers::LINK, "</app.js>; rel=preload; as=script")
            .with_header(
                hint_headers::SEMI_IMPORTANT,
                "https://cdn.example.com/lazy.js",
            )
            .with_header(
                hint_headers::UNIMPORTANT,
                "https://img.example.com/hero.jpg",
            )
            .with_header(
                hint_headers::EXPOSE,
                "Link, x-semi-important, x-unimportant",
            );
        let back = Response::from_fields(&resp.to_fields()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.header_values(hint_headers::SEMI_IMPORTANT).count(), 1);
    }

    #[test]
    fn cookie_is_sensitive() {
        let req = Request::get("a.com", "/").with_cookie("id=1");
        assert!(req
            .to_fields()
            .iter()
            .any(|f| &*f.name == "cookie" && f.sensitive));
    }

    #[test]
    fn missing_pseudo_rejected() {
        let fields = vec![HeaderField::new(":method", "GET")];
        assert!(Request::from_fields(&fields).is_err());
        assert!(Response::from_fields(&[]).is_err());
    }

    #[test]
    fn pseudo_after_regular_rejected() {
        let fields = vec![
            HeaderField::new(":method", "GET"),
            HeaderField::new("accept", "*/*"),
            HeaderField::new(":path", "/"),
        ];
        assert!(Request::from_fields(&fields).is_err());
    }

    #[test]
    fn duplicate_pseudo_rejected() {
        let fields = vec![
            HeaderField::new(":status", "200"),
            HeaderField::new(":status", "404"),
        ];
        assert!(Response::from_fields(&fields).is_err());
    }

    #[test]
    fn uppercase_header_rejected() {
        let fields = vec![
            HeaderField::new(":status", "200"),
            HeaderField::new("X-Custom", "v"),
        ];
        assert!(Response::from_fields(&fields).is_err());
    }

    #[test]
    fn bad_status_rejected() {
        let fields = vec![HeaderField::new(":status", "abc")];
        assert!(Response::from_fields(&fields).is_err());
    }

    #[test]
    fn multiple_hint_values_preserved_in_order() {
        let resp = Response::ok()
            .with_header(hint_headers::LINK, "</a.css>; rel=preload; as=style")
            .with_header(hint_headers::LINK, "</b.js>; rel=preload; as=script");
        let vals: Vec<&str> = resp.header_values(hint_headers::LINK).collect();
        assert_eq!(
            vals,
            vec![
                "</a.css>; rel=preload; as=style",
                "</b.js>; rel=preload; as=script"
            ]
        );
    }
}
