//! URL interning.
//!
//! The replay store, the browser engine, and the server-side resolver all
//! key their hot-path structures by URL. A [`Url`] is three owned `String`s,
//! so every map lookup walks string comparisons and every hand-off clones
//! three heap allocations. [`UrlTable`] replaces those with an append-only
//! intern table mapping `Url ↔ UrlId`. Ids are dense `u32`s handed out in
//! insertion order, so two runs that intern the same URLs in the same order
//! assign identical ids: the table is as deterministic as the code that
//! fills it. Resolution (`id → Url`) is a `Vec` index. Interning and reverse
//! lookup hash the URL once with a fixed-key hash and probe an
//! open-addressing index whose slots hold an id and a 32-bit hash tag; only
//! a slot whose tag matches is compared as a URL, so a hit costs one URL
//! comparison, however large the table. Each URL is stored once, in id
//! order. [`UrlTable::intern_ref`] clones a borrowed URL only when it is
//! new. Hosts and full renderings are handed out as `Arc<str>`, so callers
//! share them with `Arc::clone` instead of copying bytes.
//!
//! No external dependencies; the only workspace dependency is `vroom-html`
//! for the `Url` type itself.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

pub use vroom_html::Url;

/// Handle to an interned URL. Dense, `Copy`, and ordered by insertion:
/// `UrlId`s compare the way their intern order does, *not* the way the URLs
/// themselves sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UrlId(u32);

impl UrlId {
    /// The id as a dense index (for `Vec`-backed side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a dense index. The caller is responsible for the
    /// index having come from the same table.
    pub fn from_index(index: usize) -> Self {
        // vroom-lint: allow(panic-reachable) -- ids are minted from Vec lengths; overflow needs 2^32 interned URLs
        UrlId(u32::try_from(index).expect("more than u32::MAX interned urls"))
    }

    /// Route this id to one of `shards` buckets — the shard-selection
    /// function of the sharded hint store. Total (always `< shards` for
    /// `shards >= 1`; `0` for `shards <= 1`) and a pure function of the id
    /// *value* alone, never of table size: an id keeps its shard as the
    /// table grows, so entries filed under it never migrate. Consecutive
    /// ids are spread by Fibonacci multiplicative hashing rather than
    /// `id % shards`, which would pile every early-interned root URL onto
    /// the low shards.
    pub fn shard(self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        let h = u64::from(self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % shards
    }
}

impl fmt::Display for UrlId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Append-only intern table mapping `Url ↔ UrlId`.
///
/// Ids are handed out in insertion order and never change, so any two
/// identically-ordered fills produce identical ids — the property the
/// simulator's determinism suite pins down. The hash index only finds
/// ids; nothing iterates it, so its layout can never reach an output.
/// Equality and `Debug` look at the URL sequence alone, never at which
/// lazily rendered strings happen to exist yet.
///
/// The hash key is fixed, so URLs chosen to collide could lengthen probe
/// chains. Only URLs the program generates or records are interned; a URL
/// from outside (a wire request path) is only looked up, which walks one
/// run of the table's own slots.
#[derive(Clone, Default)]
pub struct UrlTable {
    /// Every interned URL, in id order.
    entries: Vec<Entry>,
    /// Distinct hosts seen so far, for the dedup in `push`.
    hosts: BTreeSet<Arc<str>>,
    /// Open-addressing index over `entries` with linear probing: a power of
    /// two long and at most half full, so every probe ends at an empty slot.
    index: Vec<Slot>,
}

/// One interned URL and the strings derived from it.
#[derive(Clone)]
struct Entry {
    url: Url,
    /// The URL's host, shared by every URL on the domain.
    host: Arc<str>,
    /// The full rendering, built on the first `full_url` call.
    full: OnceLock<Arc<str>>,
}

/// One index slot: empty, or an id with the tag of its URL's hash.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// `id + 1`; `0` marks an empty slot.
    id_plus_one: u32,
    tag: u32,
}

impl Slot {
    fn new(id: UrlId, tag: u32) -> Self {
        Slot {
            id_plus_one: id
                .0
                .checked_add(1)
                .expect("fewer than u32::MAX interned urls"),
            tag,
        }
    }

    fn id(self) -> Option<UrlId> {
        self.id_plus_one.checked_sub(1).map(UrlId)
    }
}

/// Index length of the first growth.
const MIN_SLOTS: usize = 16;

/// The 32-bit hash tag of a URL. `DefaultHasher::new()` has a fixed key,
/// so a table's layout depends only on the URLs interned into it, never
/// on the process. The low bits pick the home slot; all 32 bits filter
/// probes.
fn tag_of(url: &Url) -> u32 {
    let mut h = std::hash::DefaultHasher::new();
    url.hash(&mut h);
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

/// The first slot `stop` accepts, and its position, walking `index` (a
/// power of two long, never full) by linear probing from `tag`'s home
/// slot. Total: an empty index ends the walk at once.
fn probe(index: &[Slot], tag: u32, mut stop: impl FnMut(Slot) -> bool) -> Option<(usize, Slot)> {
    let mask = index.len().wrapping_sub(1);
    let mut pos = tag as usize & mask;
    loop {
        let slot = *index.get(pos)?;
        if stop(slot) {
            return Some((pos, slot));
        }
        pos = (pos + 1) & mask;
    }
}

/// Put `slot` in the first empty slot at or after its home position.
fn place(index: &mut [Slot], slot: Slot) {
    let free = probe(index, slot.tag, |s| s.id().is_none()).map(|(p, _)| p);
    if let Some(s) = free.and_then(|p| index.get_mut(p)) {
        *s = slot;
    }
}

impl UrlTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a URL, returning its id. Re-interning an already-known URL
    /// returns the existing id (the table never holds duplicates).
    pub fn intern(&mut self, url: Url) -> UrlId {
        let tag = tag_of(&url);
        self.find(&url, tag).unwrap_or_else(|| self.push(url, tag))
    }

    /// [`UrlTable::intern`] for a borrowed URL: clones it only when it is
    /// new, so re-interning a known URL allocates nothing.
    pub fn intern_ref(&mut self, url: &Url) -> UrlId {
        let tag = tag_of(url);
        self.find(url, tag)
            .unwrap_or_else(|| self.push(url.clone(), tag))
    }

    /// The id of an already-interned URL, if any. Read-only: never mutates
    /// the table, so shared (`Arc`) tables can serve lookups concurrently.
    pub fn lookup(&self, url: &Url) -> Option<UrlId> {
        self.find(url, tag_of(url))
    }

    /// Walk the probe sequence of `tag` to the slot holding `url`, or to
    /// the first empty slot (a miss).
    fn find(&self, url: &Url, tag: u32) -> Option<UrlId> {
        let (_, slot) = probe(&self.index, tag, |s| {
            s.id()
                .is_none_or(|id| s.tag == tag && self.url(id) == Some(url))
        })?;
        slot.id()
    }

    /// Append a URL known to be absent, growing the index first if the new
    /// entry would fill more than half of it.
    fn push(&mut self, url: Url, tag: u32) -> UrlId {
        let id = UrlId::from_index(self.entries.len());
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        place(&mut self.index, Slot::new(id, tag));
        let host = match self.hosts.get(url.host.as_str()) {
            Some(host) => Arc::clone(host),
            None => {
                let host: Arc<str> = Arc::from(url.host.as_str());
                self.hosts.insert(Arc::clone(&host));
                host
            }
        };
        self.entries.push(Entry {
            url,
            host,
            full: OnceLock::new(),
        });
        id
    }

    /// Double the index and re-place every id, rehashing from the URLs in
    /// id order.
    fn grow(&mut self) {
        let mut index = vec![Slot::default(); (self.index.len() * 2).max(MIN_SLOTS)];
        for (id, url) in self.iter() {
            place(&mut index, Slot::new(id, tag_of(url)));
        }
        self.index = index;
    }

    /// Resolve an id to its URL. Panics on an id from a different table;
    /// use [`UrlTable::url`] where a foreign id is possible.
    pub fn get(&self, id: UrlId) -> &Url {
        // vroom-lint: allow(panic-reachable) -- documented contract: panics only on a foreign id; wire paths use the total `url` API
        &self.entries[id.index()].url
    }

    /// Total resolution of an id to its URL (`None` for foreign ids).
    pub fn url(&self, id: UrlId) -> Option<&Url> {
        self.entries.get(id.index()).map(|e| &e.url)
    }

    /// The full rendering of an interned URL — equal to
    /// `self.get(id).to_string()`, rendered on the first call and shared
    /// after. Returns the shared string so callers can `Arc::clone` it
    /// into headers without copying.
    pub fn full_url(&self, id: UrlId) -> &Arc<str> {
        // vroom-lint: allow(panic-reachable) -- documented contract: panics only on a foreign id; wire paths use the total `url` API
        let entry = &self.entries[id.index()];
        entry.full.get_or_init(|| Arc::from(entry.url.to_string()))
    }

    /// The cached host of an interned URL. Every URL on a domain shares one
    /// allocation, so callers can `Arc::clone` it into per-domain maps and
    /// events without copying.
    pub fn host(&self, id: UrlId) -> &Arc<str> {
        // vroom-lint: allow(panic-reachable) -- documented contract: panics only on a foreign id; wire paths use the total `url` API
        &self.entries[id.index()].host
    }

    /// Number of interned URLs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(id, url)` in insertion (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (UrlId, &Url)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (UrlId::from_index(i), &e.url))
    }

    /// Iterate `(url, id)` in URL sort order — for canonical serialization,
    /// which must not depend on intern order. Sorts on every call.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&Url, UrlId)> {
        let mut sorted: Vec<(&Url, UrlId)> = self.iter().map(|(id, url)| (url, id)).collect();
        // URLs are unique, so the order is total.
        sorted.sort_unstable();
        sorted.into_iter()
    }
}

impl PartialEq for UrlTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().map(|(_, u)| u).eq(other.iter().map(|(_, u)| u))
    }
}

impl fmt::Debug for UrlTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, u)| u)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = UrlTable::new();
        let a = t.intern(Url::https("a.com", "/x"));
        let b = t.intern(Url::https("b.com", "/y"));
        let a2 = t.intern(Url::https("a.com", "/x"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), &Url::https("a.com", "/x"));
        assert_eq!(t.lookup(&Url::https("b.com", "/y")), Some(b));
        assert_eq!(t.lookup(&Url::https("c.com", "/")), None);
        assert_eq!(t.url(UrlId::from_index(99)), None);
    }

    #[test]
    fn ids_are_insertion_ordered_not_url_ordered() {
        let mut t = UrlTable::new();
        let z = t.intern(Url::https("z.com", "/"));
        let a = t.intern(Url::https("a.com", "/"));
        assert!(z < a, "ids follow insertion order");
        let sorted: Vec<&Url> = t.iter_sorted().map(|(u, _)| u).collect();
        assert_eq!(sorted[0].host, "a.com", "sorted iteration is by URL");
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        for id in [0usize, 1, 2, 17, 4096, u32::MAX as usize] {
            let id = UrlId::from_index(id.min(u32::MAX as usize));
            assert_eq!(id.shard(0), 0);
            assert_eq!(id.shard(1), 0);
            for shards in [2usize, 3, 8, 16, 1024] {
                assert!(id.shard(shards) < shards, "total for shards={shards}");
            }
        }
        // Stability: a table growing around an id never changes its shard.
        let mut t = UrlTable::new();
        let first = t.intern(Url::https("a.com", "/x"));
        let before = first.shard(16);
        for i in 0..100 {
            t.intern(Url::https(format!("host{i}.com"), "/y"));
        }
        assert_eq!(first.shard(16), before);
    }

    #[test]
    fn url_table_tells_apart_urls_that_differ_in_one_field_or_byte() {
        let urls = [
            Url::https("a.com", "/x/y.js"),
            Url::new("http", "a.com", "/x/y.js"),
            Url::https("b.com", "/x/y.js"),
            Url::https("a.com", "/x/y.jt"),
            Url::https("a.com", "/x/y.j"),
        ];
        let mut t = UrlTable::new();
        for (k, url) in urls.iter().enumerate() {
            assert_eq!(t.lookup(url), None, "{url} before its intern");
            let id = t.intern(url.clone());
            assert_eq!(id.index(), k, "{url} is new");
            assert_eq!(
                t.intern_ref(&url.clone()),
                id,
                "{url} again, by an equal copy"
            );
            for (j, other) in urls.iter().enumerate() {
                let want = (j <= k).then(|| UrlId::from_index(j));
                assert_eq!(t.lookup(other), want, "{other} after {url}");
            }
        }
        // Growing past the first index re-places every id.
        for i in 0..100 {
            t.intern(Url::https("a.com", format!("/{i}")));
        }
        for (id, url) in t.iter() {
            assert_eq!(t.lookup(url), Some(id));
        }
        assert_eq!(t.lookup(&Url::https("a.com", "/100")), None);
    }

    #[test]
    fn url_table_keeps_apart_two_urls_with_one_tag() {
        // Birthday search over the fixed-key hash: a 32-bit tag collides
        // within about 80,000 URLs.
        let mut seen = std::collections::HashMap::new();
        let url = |i: u32| Url::https("a.com", format!("/p/{i}"));
        let (a, b) = (0..1u32 << 22)
            .find_map(|i| seen.insert(tag_of(&url(i)), i).map(|j| (url(j), url(i))))
            .expect("a tag collision among 4M URLs");
        assert_ne!(a, b);
        assert_eq!(tag_of(&a), tag_of(&b));
        let mut t = UrlTable::new();
        let ia = t.intern_ref(&a);
        assert_eq!(t.lookup(&b), None, "one tag, different URLs");
        let ib = t.intern_ref(&b);
        assert_ne!(ia, ib);
        assert_eq!((t.intern_ref(&a), t.intern_ref(&b)), (ia, ib));
        assert_eq!((t.get(ia), t.get(ib)), (&a, &b));
    }

    #[test]
    fn full_url_is_cached_and_matches_display() {
        let mut t = UrlTable::new();
        let id = t.intern(Url::https("a.com", "/x?q=1"));
        assert_eq!(t.full_url(id).to_string(), t.get(id).to_string());
        assert!(Arc::ptr_eq(t.full_url(id), t.full_url(id)));
    }
}
