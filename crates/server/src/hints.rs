//! Wire encoding of dependency hints (paper Table 1).
//!
//! Tier 0 travels as standard `Link` preload headers; tiers 1 and 2 as
//! Vroom's `x-semi-important` / `x-unimportant` extension headers. The
//! response also exposes the custom headers to cross-origin JS schedulers
//! via `Access-Control-Expose-Headers` (§5.2, footnote 7).

use std::sync::Arc;
use vroom_browser::config::Hint;
use vroom_html::{ResourceKind, Url};
use vroom_http2::headers::hint_headers as names;
use vroom_http2::Response;
use vroom_intern::UrlTable;

/// The `as=` destination token for a preload of this kind.
fn as_token(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Js => "script",
        ResourceKind::Css => "style",
        ResourceKind::Image => "image",
        ResourceKind::Font => "font",
        ResourceKind::Html => "document",
        ResourceKind::Media => "video",
        ResourceKind::Xhr | ResourceKind::Other => "fetch",
    }
}

/// Attach a hint list to an HTTP response as headers. This is the wire
/// boundary: interned ids are materialized to URL strings here.
pub fn attach_hints(mut response: Response, hints: &[Hint], urls: &UrlTable) -> Response {
    for h in hints {
        match h.tier {
            0 => {
                let url = urls.get(h.url);
                let kind = ResourceKind::from_url(url);
                response.headers.push(vroom_hpack::HeaderField::new(
                    names::LINK,
                    // vroom-lint: allow(hot-path-alloc) -- the Link value composes URL, rel, and as-token into one string; no cached form exists
                    format!("<{url}>; rel=preload; as={}", as_token(kind)),
                ));
            }
            1 => {
                response.headers.push(vroom_hpack::HeaderField::new(
                    names::SEMI_IMPORTANT,
                    Arc::clone(urls.full_url(h.url)),
                ));
            }
            _ => {
                response.headers.push(vroom_hpack::HeaderField::new(
                    names::UNIMPORTANT,
                    Arc::clone(urls.full_url(h.url)),
                ));
            }
        }
    }
    response.headers.push(vroom_hpack::HeaderField::new(
        names::EXPOSE,
        "Link, x-semi-important, x-unimportant",
    ));
    response
}

/// Parse hint headers back out of a response, preserving header order within
/// each tier. Parsed URLs are interned into `urls`.
pub fn parse_hints(response: &Response, urls: &mut UrlTable) -> Vec<Hint> {
    let mut out = Vec::new();
    for f in &response.headers {
        match &*f.name {
            n if n == names::LINK => {
                if let Some(url) = parse_link_preload(&f.value) {
                    out.push(Hint {
                        url: urls.intern(url),
                        tier: 0,
                        size_hint: 0,
                    });
                }
            }
            n if n == names::SEMI_IMPORTANT => {
                if let Some(url) = Url::parse(&f.value) {
                    out.push(Hint {
                        url: urls.intern(url),
                        tier: 1,
                        size_hint: 0,
                    });
                }
            }
            n if n == names::UNIMPORTANT => {
                if let Some(url) = Url::parse(&f.value) {
                    out.push(Hint {
                        url: urls.intern(url),
                        tier: 2,
                        size_hint: 0,
                    });
                }
            }
            _ => {}
        }
    }
    out.sort_by_key(|h| h.tier);
    out
}

/// Extract the URL from a `Link: <url>; rel=preload; …` value; `None` if the
/// value is not a preload relation.
pub fn parse_link_preload(value: &str) -> Option<Url> {
    let value = value.trim();
    let end = value.find('>')?;
    let url = Url::parse(value.get(1..end)?)?;
    let params = &value[end + 1..];
    if params
        .split(';')
        .any(|p| p.trim().eq_ignore_ascii_case("rel=preload"))
    {
        Some(url)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hint(urls: &mut UrlTable, url: &str, tier: u8) -> Hint {
        Hint {
            url: urls.intern(Url::parse(url).unwrap()),
            tier,
            size_hint: 1000,
        }
    }

    #[test]
    fn roundtrip_through_headers() {
        let mut urls = UrlTable::new();
        let hints = vec![
            hint(&mut urls, "https://a.com/app.js", 0),
            hint(&mut urls, "https://b.com/style.css", 0),
            hint(&mut urls, "https://c.net/widget.js", 1),
            hint(&mut urls, "https://a.com/hero.jpg", 2),
        ];
        let resp = attach_hints(Response::ok(), &hints, &urls);
        let parsed = parse_hints(&resp, &mut urls);
        assert_eq!(parsed.len(), 4);
        assert_eq!(
            parsed.iter().map(|h| h.tier).collect::<Vec<_>>(),
            vec![0, 0, 1, 2]
        );
        assert_eq!(parsed[0].url, hints[0].url, "re-interning is idempotent");
        assert_eq!(parsed[3].url, hints[3].url);
    }

    #[test]
    fn link_header_format_is_standard() {
        let mut urls = UrlTable::new();
        let js = hint(&mut urls, "https://a.com/app.js", 0);
        let resp = attach_hints(Response::ok(), &[js], &urls);
        let link = resp.header_values("link").next().unwrap();
        assert_eq!(link, "<https://a.com/app.js>; rel=preload; as=script");
        let css = hint(&mut urls, "https://a.com/m.css", 0);
        let css = attach_hints(Response::ok(), &[css], &urls);
        assert!(css
            .header_values("link")
            .next()
            .unwrap()
            .ends_with("as=style"));
    }

    #[test]
    fn expose_header_present_for_cors_schedulers() {
        let mut urls = UrlTable::new();
        let h = hint(&mut urls, "https://a.com/x.js", 1);
        let resp = attach_hints(Response::ok(), &[h], &urls);
        let expose = resp
            .header_values("access-control-expose-headers")
            .next()
            .unwrap();
        assert!(expose.contains("x-semi-important"));
        assert!(expose.contains("x-unimportant"));
    }

    #[test]
    fn non_preload_links_ignored() {
        assert!(parse_link_preload("<https://a.com/>; rel=canonical").is_none());
        assert!(parse_link_preload("garbage").is_none());
        assert!(parse_link_preload("<https://a.com/x.js>; rel=preload").is_some());
    }

    #[test]
    fn hpack_roundtrip_of_hint_headers() {
        // The hint headers survive real header compression.
        let mut urls = UrlTable::new();
        let hints = vec![
            hint(&mut urls, "https://a.com/app.js", 0),
            hint(&mut urls, "https://cdn.a.com/x.woff2", 2),
        ];
        let resp = attach_hints(Response::ok(), &hints, &urls);
        let mut enc = vroom_hpack::Encoder::new();
        let mut dec = vroom_hpack::Decoder::new();
        let wire = enc.encode(&resp.to_fields());
        let fields = dec.decode(&wire).unwrap();
        let back = Response::from_fields(&fields).unwrap();
        assert_eq!(parse_hints(&back, &mut urls).len(), 2);
    }
}
