//! Resource discovery by scanning markup — the engine behind Vroom's
//! *online HTML analysis* (paper §4.1.2): "when a VROOM-compliant web server
//! responds to a request with an HTML object, it … includes all URLs seen in
//! the HTML object by parsing it on the fly."
//!
//! The scanner extracts sub-resource references from tags (`script`, `link`,
//! `img`, `iframe`, media elements), from inline CSS (`url(...)`,
//! `@import`), and — heuristically — absolute URLs inside inline scripts.

use crate::tokenizer::{attr, Token, Tokenizer};
use crate::url::Url;

/// Content classes a page-load cares about. The split drives Vroom's
/// priorities: `Html`, `Css`, and `Js` must be *processed* (high priority),
/// everything else is payload (low priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Top-level or iframe documents.
    Html,
    /// Stylesheets.
    Css,
    /// Scripts.
    Js,
    /// Raster/vector images.
    Image,
    /// Web fonts.
    Font,
    /// Audio/video.
    Media,
    /// Fetch/XHR payloads (JSON APIs etc.).
    Xhr,
    /// Anything else.
    Other,
}

impl ResourceKind {
    /// Whether the browser must parse/execute this resource — Vroom's
    /// high-priority class (HTML, CSS, JS).
    pub fn needs_processing(self) -> bool {
        matches!(
            self,
            ResourceKind::Html | ResourceKind::Css | ResourceKind::Js
        )
    }

    /// Guess a kind from a URL's file extension.
    pub fn from_extension(ext: &str) -> ResourceKind {
        match ext {
            "html" | "htm" | "php" | "asp" | "aspx" | "jsp" => ResourceKind::Html,
            "css" => ResourceKind::Css,
            "js" | "mjs" => ResourceKind::Js,
            "png" | "jpg" | "jpeg" | "gif" | "webp" | "svg" | "ico" | "avif" | "bmp" => {
                ResourceKind::Image
            }
            "woff" | "woff2" | "ttf" | "otf" | "eot" => ResourceKind::Font,
            "mp4" | "webm" | "mp3" | "ogg" | "m3u8" | "ts" | "mov" => ResourceKind::Media,
            "json" | "xml" => ResourceKind::Xhr,
            _ => ResourceKind::Other,
        }
    }

    /// Guess a kind from a URL (extension, else `Other`).
    pub fn from_url(url: &Url) -> ResourceKind {
        url.extension()
            .map(|e| Self::from_extension(&e))
            .unwrap_or(ResourceKind::Other)
    }
}

/// Script execution mode, which decides Vroom's priority tier
/// (sync scripts are `Link preload`; async/defer are `x-semi-important`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Blocks the parser.
    Sync,
    /// `async` — executes when ready.
    Async,
    /// `defer` — executes after parsing.
    Defer,
}

/// One reference discovered in a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discovered {
    /// Absolute URL after resolution against the document base.
    pub url: Url,
    /// Content class.
    pub kind: ResourceKind,
    /// Execution mode (scripts only; `Sync` otherwise).
    pub exec: ExecMode,
}

/// What a tag's `src` attribute loads, for each tag whose `src` is a
/// sub-resource.
const SRC_TAGS: [(&str, ResourceKind); 8] = [
    ("script", ResourceKind::Js),
    ("img", ResourceKind::Image),
    ("iframe", ResourceKind::Html),
    ("video", ResourceKind::Media),
    ("audio", ResourceKind::Media),
    ("source", ResourceKind::Media),
    ("track", ResourceKind::Media),
    ("embed", ResourceKind::Media),
];

/// Scan an HTML document for sub-resource references.
///
/// Duplicate URLs are collapsed (first mention wins), matching how a browser
/// only fetches each URL once.
pub fn scan_html(base: &Url, html: &str) -> Vec<Discovered> {
    let mut out = Vec::new();
    for token in Tokenizer::new(html) {
        let (name, attrs) = match token {
            Token::StartTag { name, attrs } => (name, attrs),
            Token::RawText {
                element: "style",
                text,
            } => {
                scan_css(base, text, &mut out);
                continue;
            }
            Token::RawText { text, .. } => {
                scan_inline_script(text, &mut out);
                continue;
            }
        };
        let get = |a: &str| attr(&attrs, a);
        if name.eq_ignore_ascii_case("link") {
            let Some(url) = get("href").and_then(|h| base.join(h)) else {
                continue;
            };
            let rels = get("rel").unwrap_or("");
            let rel = |r: &str| rels.split_whitespace().any(|v| v.eq_ignore_ascii_case(r));
            if rel("stylesheet") {
                found(&mut out, url, ResourceKind::Css, ExecMode::Sync);
            } else if rel("preload") || rel("prefetch") {
                let kind = match get("as") {
                    Some("script") => ResourceKind::Js,
                    Some("style") => ResourceKind::Css,
                    Some("image") => ResourceKind::Image,
                    Some("font") => ResourceKind::Font,
                    Some("document") => ResourceKind::Html,
                    _ => ResourceKind::from_url(&url),
                };
                found(&mut out, url, kind, ExecMode::Sync);
            }
            continue;
        }
        let Some(&(_, kind)) = SRC_TAGS.iter().find(|(t, _)| name.eq_ignore_ascii_case(t)) else {
            continue;
        };
        let exec = match kind {
            ResourceKind::Js if get("async").is_some() => ExecMode::Async,
            ResourceKind::Js if get("defer").is_some() => ExecMode::Defer,
            _ => ExecMode::Sync,
        };
        if let Some(url) = get("src").and_then(|s| base.join(s)) {
            found(&mut out, url, kind, exec);
        }
        if kind == ResourceKind::Image {
            for candidate in get("srcset").unwrap_or("").split(',') {
                if let Some(url) = candidate
                    .split_whitespace()
                    .next()
                    .and_then(|u| base.join(u))
                {
                    found(&mut out, url, kind, exec);
                }
            }
        }
    }
    out
}

/// Record `url` unless the document already mentioned it.
fn found(out: &mut Vec<Discovered>, url: Url, kind: ResourceKind, exec: ExecMode) {
    if !out.iter().any(|d| d.url == url) {
        out.push(Discovered { url, kind, exec });
    }
}

/// Scan CSS (inline style text) for `url(...)` and `@import` references.
fn scan_css(base: &Url, css: &str, out: &mut Vec<Discovered>) {
    let bytes = css.as_bytes();
    let mut i = 0;
    // Walk bytes, not chars: a match starts with an ASCII byte, which is
    // always a char boundary, so every slice below is too.
    while i < bytes.len() {
        if bytes[i..].starts_with(b"url(") {
            let start = i + 4;
            if let Some(close) = css[start..].find(')') {
                let raw = css[start..start + close].trim().trim_matches(['"', '\'']);
                if let Some(url) = base.join(raw) {
                    let kind = match ResourceKind::from_url(&url) {
                        ResourceKind::Other => ResourceKind::Image, // CSS urls default to images
                        k => k,
                    };
                    found(out, url, kind, ExecMode::Sync);
                }
                i = start + close;
                continue;
            }
        } else if bytes[i..].starts_with(b"@import") {
            let rest = &css[i + 7..];
            let end = rest.find(';').unwrap_or(rest.len());
            let raw = rest[..end]
                .trim()
                .trim_start_matches("url(")
                .trim_end_matches(')')
                .trim()
                .trim_matches(['"', '\'']);
            if let Some(url) = base.join(raw) {
                found(out, url, ResourceKind::Css, ExecMode::Sync);
            }
            i += 7 + end;
            continue;
        }
        i += 1;
    }
}

/// Heuristically pull absolute http(s) URLs out of an inline script. This
/// mirrors what a server can cheaply do online; URLs built dynamically by
/// string concatenation are exactly the "unpredictable" resources Vroom
/// leaves to the client.
fn scan_inline_script(text: &str, out: &mut Vec<Discovered>) {
    let mut search = text;
    while let Some(idx) = search.find("http") {
        let candidate = &search[idx..];
        let is_url = candidate.starts_with("http://") || candidate.starts_with("https://");
        if is_url {
            let end = candidate
                .find(|c: char| {
                    c.is_whitespace() || matches!(c, '"' | '\'' | '`' | ')' | '<' | '>' | '\\')
                })
                .unwrap_or(candidate.len());
            let raw = candidate[..end].trim_end_matches([',', ';', '.']);
            if let Some(url) = Url::parse(raw).filter(|u| u.path.len() > 1) {
                let kind = ResourceKind::from_url(&url);
                found(out, url, kind, ExecMode::Sync);
            }
            search = &search[idx + end.max(4)..];
        } else {
            search = &search[idx + 4..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Url {
        Url::https("news.com", "/index.html")
    }

    fn urls(found: &[Discovered]) -> Vec<String> {
        found.iter().map(|d| d.url.to_string()).collect()
    }

    #[test]
    fn finds_scripts_with_exec_modes() {
        let html = r#"
            <script src="/app.js"></script>
            <script async src="https://ads.net/ad.js"></script>
            <script defer src="late.js"></script>
        "#;
        let found = scan_html(&base(), html);
        assert_eq!(found.len(), 3);
        assert_eq!(found[0].exec, ExecMode::Sync);
        assert_eq!(found[0].kind, ResourceKind::Js);
        assert_eq!(found[1].exec, ExecMode::Async);
        assert_eq!(found[1].url.host, "ads.net");
        assert_eq!(found[2].exec, ExecMode::Defer);
        assert_eq!(found[2].url.path, "/late.js");
    }

    #[test]
    fn finds_stylesheets_and_preloads() {
        let html = r#"
            <link rel="stylesheet" href="/main.css">
            <link rel="preload" href="/hero.webp" as="image">
            <link rel="preload" href="//cdn.news.com/font.woff2" as="font">
            <link rel="canonical" href="https://news.com/">
        "#;
        let found = scan_html(&base(), html);
        assert_eq!(found.len(), 3, "canonical must be ignored: {found:?}");
        assert_eq!(found[0].kind, ResourceKind::Css);
        assert_eq!(found[1].kind, ResourceKind::Image);
        assert_eq!(found[2].kind, ResourceKind::Font);
    }

    #[test]
    fn finds_images_and_srcset() {
        let html = r#"<img src="a.jpg" srcset="a-2x.jpg 2x, a-3x.jpg 3x">"#;
        let found = scan_html(&base(), html);
        assert_eq!(
            urls(&found),
            vec![
                "https://news.com/a.jpg",
                "https://news.com/a-2x.jpg",
                "https://news.com/a-3x.jpg"
            ]
        );
        assert!(found.iter().all(|d| d.kind == ResourceKind::Image));
    }

    #[test]
    fn finds_iframes_as_html() {
        let html = r#"<iframe src="https://ads.net/frame.html"></iframe>"#;
        let found = scan_html(&base(), html);
        assert_eq!(found[0].kind, ResourceKind::Html);
    }

    #[test]
    fn finds_css_urls_in_style_blocks() {
        let html = r#"<style>
            @import url("/theme.css");
            body { background: url('/bg.png'); }
            @font-face { src: url(/f.woff2); }
        </style>"#;
        let found = scan_html(&base(), html);
        let kinds: Vec<ResourceKind> = found.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![ResourceKind::Css, ResourceKind::Image, ResourceKind::Font]
        );
    }

    #[test]
    fn scan_css_standalone() {
        // Multi-byte text before, between and inside references.
        let css = r#"p { font-family: "Café" } @import "extra.css"; .x { background-image: url(img/dot.gif) } .日 { background: url(ß.png) }"#;
        let mut found = Vec::new();
        scan_css(&Url::https("a.com", "/styles/main.css"), css, &mut found);
        assert_eq!(
            urls(&found),
            vec![
                "https://a.com/styles/extra.css",
                "https://a.com/styles/img/dot.gif",
                "https://a.com/styles/ß.png"
            ]
        );
    }

    #[test]
    fn inline_script_absolute_urls() {
        let html = r#"<script>
            var img = new Image();
            img.src = "https://b.com/img.jpg";
            fetch('https://api.news.com/v1/stories.json');
            var partial = "https://" + host + "/dyn.js"; // unpredictable
        </script>"#;
        let found = scan_html(&base(), html);
        let u = urls(&found);
        assert!(u.contains(&"https://b.com/img.jpg".to_string()));
        assert!(u.contains(&"https://api.news.com/v1/stories.json".to_string()));
        assert_eq!(u.len(), 2, "concatenated URL must not be extracted: {u:?}");
    }

    #[test]
    fn data_uris_and_javascript_hrefs_ignored() {
        let html = r#"
            <img src="data:image/png;base64,AAAA">
            <script src="javascript:void(0)"></script>
        "#;
        assert!(scan_html(&base(), html).is_empty());
    }

    #[test]
    fn duplicates_collapsed() {
        let html = r#"<img src="/a.png"><img src="/a.png"><img src="a.png">"#;
        assert_eq!(scan_html(&base(), html).len(), 1);
    }

    #[test]
    fn kind_from_extension_table() {
        assert_eq!(ResourceKind::from_extension("js"), ResourceKind::Js);
        assert_eq!(ResourceKind::from_extension("css"), ResourceKind::Css);
        assert_eq!(ResourceKind::from_extension("webp"), ResourceKind::Image);
        assert_eq!(ResourceKind::from_extension("woff2"), ResourceKind::Font);
        assert_eq!(ResourceKind::from_extension("mp4"), ResourceKind::Media);
        assert_eq!(ResourceKind::from_extension("json"), ResourceKind::Xhr);
        assert_eq!(ResourceKind::from_extension("bin"), ResourceKind::Other);
        assert!(ResourceKind::Html.needs_processing());
        assert!(ResourceKind::Css.needs_processing());
        assert!(ResourceKind::Js.needs_processing());
        assert!(!ResourceKind::Image.needs_processing());
    }

    #[test]
    fn realistic_news_page() {
        // A page shaped like the paper's Figure 5/10 examples.
        let html = r#"<!DOCTYPE html>
<html><head>
  <link rel="stylesheet" href="https://b.com/style.css">
  <script src="/foo.js"></script>
  <script async src="https://c.com/ad_inject.js"></script>
</head><body>
  <img src="/banner.jpg">
  <iframe src="https://c.com/ad.php"></iframe>
  <script>var i=new Image(); i.src="https://b.com/logo_lo_res.png";</script>
</body></html>"#;
        let found = scan_html(&Url::https("a.com", "/index.html"), html);
        let u = urls(&found);
        assert_eq!(
            u,
            vec![
                "https://b.com/style.css",
                "https://a.com/foo.js",
                "https://c.com/ad_inject.js",
                "https://a.com/banner.jpg",
                "https://c.com/ad.php",
                "https://b.com/logo_lo_res.png",
            ]
        );
        // The iframe is the only embedded HTML.
        assert_eq!(
            found
                .iter()
                .filter(|d| d.kind == ResourceKind::Html)
                .count(),
            1
        );
    }
}
