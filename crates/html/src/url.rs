//! A minimal URL type sufficient for page-load modeling: scheme, host, path.
//!
//! Deliberately not a full RFC 3986 implementation — query strings stay glued
//! to the path (they matter for Vroom's unpredictability analysis: ad URLs
//! differ across loads precisely in their query parameters), and userinfo,
//! ports, and fragments beyond stripping are out of scope.

use std::fmt;

/// A parsed absolute URL.
///
/// Serialized as its display string (so it can key JSON maps in the replay
/// store).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Host name, lower-cased.
    pub host: String,
    /// Path including query string, always starting with `/`.
    pub path: String,
}

impl Url {
    /// Construct directly.
    pub fn new(
        scheme: impl Into<String>,
        host: impl Into<String>,
        path: impl Into<String>,
    ) -> Self {
        let mut path = path.into();
        if path.is_empty() {
            path.push('/');
        }
        Url {
            scheme: scheme.into(),
            host: host.into().to_ascii_lowercase(),
            path,
        }
    }

    /// Shorthand for an `https` URL.
    pub fn https(host: impl Into<String>, path: impl Into<String>) -> Self {
        Url::new("https", host, path)
    }

    /// Parse an absolute URL. Fragments are stripped; the host is
    /// lower-cased. Returns `None` for non-http(s) schemes or empty hosts.
    pub fn parse(s: &str) -> Option<Url> {
        let s = s.trim();
        if let Some(r) = s.strip_prefix("https://") {
            Self::parse_after_scheme("https", r)
        } else if let Some(r) = s.strip_prefix("http://") {
            Self::parse_after_scheme("http", r)
        } else {
            // Reject other schemes (data:, javascript:, ...).
            None
        }
    }

    fn parse_after_scheme(scheme: &str, rest: &str) -> Option<Url> {
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        let host = host.split('@').next_back()?; // drop userinfo if any
        let host = host.split(':').next()?; // drop port
        if host.is_empty() {
            return None;
        }
        let path = path.split('#').next().unwrap_or("/");
        Some(Url::new(scheme, host, path))
    }

    /// Resolve a reference against this base URL: handles absolute URLs,
    /// protocol-relative (`//host/x`), root-relative (`/x`), and
    /// path-relative (`x`, `../x`) references. Returns `None` for
    /// unsupported schemes (`data:`, `javascript:`, `mailto:`, ...).
    pub fn join(&self, reference: &str) -> Option<Url> {
        let r = reference.trim();
        if r.is_empty() {
            return None;
        }
        if r.starts_with("http://") || r.starts_with("https://") {
            return Url::parse(r);
        }
        if let Some(pr) = r.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, pr));
        }
        // Reject explicit non-http schemes ("data:", "javascript:", etc.):
        // a scheme prefix before any '/' means a scheme-qualified reference.
        if let Some(colon) = r.find(':') {
            if !r[..colon].contains('/') {
                return None;
            }
        }
        let path = r.split('#').next().unwrap_or("");
        if path.is_empty() {
            return None;
        }
        // Both branches run through the same segment normalizer: a crawled
        // `/b.css` and a page referencing it as `/a/../b.css` must resolve
        // to the same replay-store key.
        let resolved = if path.starts_with('/') {
            normalize_path(path)
        } else {
            // Relative to base directory.
            let dir_end = self.path.rfind('/').unwrap_or(0);
            normalize_path(&format!("{}/{}", &self.path[..dir_end], path))
        };
        Some(Url::new(&self.scheme, &self.host, resolved))
    }

    /// The origin string, `scheme://host`.
    pub fn origin(&self) -> String {
        // vroom-lint: allow(hot-path-alloc) -- `fleet::load_client` lists a load's origins for the origin-reuse pool: one string per distinct origin of a load, not per resource
        format!("{}://{}", self.scheme, self.host)
    }

    /// Same-origin check (scheme + host; ports are out of scope).
    pub fn same_origin(&self, other: &Url) -> bool {
        self.scheme == other.scheme && self.host == other.host
    }

    /// The registrable domain, approximated as the last two labels
    /// (`cdn.news.com` → `news.com`). Used for the paper's "all other
    /// domains controlled by the same organization" incremental-deployment
    /// experiment.
    pub fn registrable_domain(&self) -> &str {
        let mut dots = self.host.rmatch_indices('.');
        let _tld_dot = dots.next();
        match dots.next() {
            Some((i, _)) => &self.host[i + 1..],
            None => &self.host,
        }
    }

    /// Whether two URLs belong to the same organization (same registrable
    /// domain).
    pub fn same_site(&self, other: &Url) -> bool {
        self.registrable_domain() == other.registrable_domain()
    }

    /// The file extension of the path, if any, lower-cased and without the
    /// query string.
    pub fn extension(&self) -> Option<String> {
        let path = self.path.split('?').next().unwrap_or("");
        let file = path.rsplit('/').next()?;
        let (stem, ext) = file.rsplit_once('.')?;
        if stem.is_empty() || ext.is_empty() || ext.len() > 5 {
            return None;
        }
        Some(ext.to_ascii_lowercase())
    }
}

/// Collapse `.` and `..` segments of an absolute path (RFC 3986 §5.2.4
/// in spirit), leaving any query string untouched. Over-popped `..`
/// clamps at the root instead of escaping it, and a directory reference
/// (trailing `/`, `/.`, or `/..`) keeps its trailing slash.
fn normalize_path(path: &str) -> String {
    let (p, query) = match path.find('?') {
        Some(i) => path.split_at(i),
        None => (path, ""),
    };
    let trailing_dir = p.ends_with('/') || p.ends_with("/.") || p.ends_with("/..");
    let mut segs: Vec<&str> = Vec::new();
    for seg in p.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segs.pop();
            }
            s => segs.push(s),
        }
    }
    let mut out = String::with_capacity(path.len() + 1);
    out.push('/');
    out.push_str(&segs.join("/"));
    if trailing_dir && !segs.is_empty() {
        out.push('/');
    }
    out.push_str(query);
    out
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_forms() {
        let u = Url::parse("https://News.Example.com/a/b.html?x=1#frag").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "news.example.com");
        assert_eq!(u.path, "/a/b.html?x=1");
        assert_eq!(u.to_string(), "https://news.example.com/a/b.html?x=1");

        let bare = Url::parse("http://a.com").unwrap();
        assert_eq!(bare.path, "/");
    }

    #[test]
    fn parse_strips_port_and_userinfo() {
        let raw = format!("https://user:pass{}a.com:8443/x", "\u{40}");
        let u = Url::parse(&raw).unwrap();
        assert_eq!(u.host, "a.com");
        assert_eq!(u.path, "/x");
    }

    #[test]
    fn parse_rejects_other_schemes() {
        assert!(Url::parse("data:image/png;base64,AAA").is_none());
        assert!(Url::parse("javascript:void(0)").is_none());
        assert!(Url::parse("ftp://a.com/x").is_none());
        assert!(Url::parse("https:///nopath").is_none());
    }

    #[test]
    fn join_absolute_and_protocol_relative() {
        let base = Url::https("a.com", "/dir/page.html");
        assert_eq!(
            base.join("https://b.com/x.js").unwrap(),
            Url::https("b.com", "/x.js")
        );
        assert_eq!(
            base.join("//cdn.b.com/y.css").unwrap(),
            Url::https("cdn.b.com", "/y.css")
        );
    }

    #[test]
    fn join_root_and_path_relative() {
        let base = Url::https("a.com", "/dir/sub/page.html");
        assert_eq!(base.join("/img/x.png").unwrap().path, "/img/x.png");
        assert_eq!(base.join("x.png").unwrap().path, "/dir/sub/x.png");
        assert_eq!(base.join("../x.png").unwrap().path, "/dir/x.png");
        assert_eq!(base.join("../../../x.png").unwrap().path, "/x.png");
        assert_eq!(base.join("./a/b.js").unwrap().path, "/dir/sub/a/b.js");
    }

    #[test]
    fn join_normalizes_absolute_refs() {
        // Regression: a crawled `/b.css` referenced as `/a/../b.css` must
        // resolve to the replay-store key `/b.css`, not keep literal `..`.
        let base = Url::https("a.com", "/dir/page.html");
        assert_eq!(base.join("/a/../b.css").unwrap().path, "/b.css");
        assert_eq!(base.join("/a/./b/../c.css").unwrap().path, "/a/c.css");
        assert_eq!(base.join("/a//b.css").unwrap().path, "/a/b.css");
        // Query strings survive untouched.
        assert_eq!(
            base.join("/a/../b.css?v=1&u=..").unwrap().path,
            "/b.css?v=1&u=.."
        );
    }

    #[test]
    fn join_clamps_over_popped_dotdot() {
        let base = Url::https("a.com", "/dir/page.html");
        assert_eq!(base.join("/../../x.png").unwrap().path, "/x.png");
        assert_eq!(base.join("../../../../x.png").unwrap().path, "/x.png");
        assert_eq!(base.join("/..").unwrap().path, "/");
    }

    #[test]
    fn join_preserves_trailing_slash() {
        let base = Url::https("a.com", "/dir/sub/page.html");
        assert_eq!(base.join("/a/b/").unwrap().path, "/a/b/");
        assert_eq!(base.join("gallery/").unwrap().path, "/dir/sub/gallery/");
        assert_eq!(base.join("/a/b/..").unwrap().path, "/a/");
        assert_eq!(base.join("/a/b/.").unwrap().path, "/a/b/");
        // Collapsing to the root never doubles the slash.
        assert_eq!(base.join("/a/..").unwrap().path, "/");
    }

    #[test]
    fn join_rejects_non_http_schemes() {
        let base = Url::https("a.com", "/");
        assert!(base.join("data:text/plain,hi").is_none());
        assert!(base.join("javascript:alert(1)").is_none());
        assert!(base
            .join(&format!("mailto:bob{}example.org", "\u{40}"))
            .is_none());
        // But a path containing a colon after a slash is fine.
        assert!(base.join("/weird/a:b.png").is_some());
    }

    #[test]
    fn origins_and_sites() {
        let a = Url::https("cdn.news.com", "/x");
        let b = Url::https("www.news.com", "/y");
        let c = Url::https("ads.tracker.net", "/z");
        assert!(!a.same_origin(&b));
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
        assert_eq!(a.registrable_domain(), "news.com");
        assert_eq!(
            Url::https("localhost", "/").registrable_domain(),
            "localhost"
        );
    }

    #[test]
    fn extension_extraction() {
        assert_eq!(
            Url::https("a.com", "/x/app.min.js?v=2")
                .extension()
                .unwrap(),
            "js"
        );
        assert_eq!(
            Url::https("a.com", "/style.CSS").extension().unwrap(),
            "css"
        );
        assert_eq!(Url::https("a.com", "/api/data").extension(), None);
        assert_eq!(Url::https("a.com", "/.hidden").extension(), None);
        assert_eq!(Url::https("a.com", "/x.verylongext").extension(), None);
    }
}
