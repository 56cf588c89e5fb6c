//! URL interning and shared immutable buffers.
//!
//! The replay store, the browser engine, and the server-side resolver all
//! key their hot-path structures by URL. A [`Url`] is three owned `String`s,
//! so every map lookup walks string comparisons and every hand-off clones
//! three heap allocations. This crate replaces those with:
//!
//! * [`UrlTable`] — an append-only intern table mapping `Url ↔ UrlId`.
//!   Ids are dense `u32`s handed out in insertion order, so two runs that
//!   intern the same URLs in the same order assign identical ids: the table
//!   is as deterministic as the code that fills it. Resolution (`id → Url`)
//!   is a `Vec` index. Interning and reverse lookup hash the URL once with a
//!   fixed-key hash and probe an open-addressing index whose slots hold an
//!   id and a 32-bit hash tag; only a slot whose tag matches is compared as
//!   a URL, so a hit costs one URL comparison, however large the table.
//!   Each URL is stored once, in id order. [`UrlTable::intern_ref`] clones
//!   a borrowed URL only when it is new.
//! * [`UrlSet`] — the same hash and probe over borrowed URLs, for code
//!   that only asks whether it has seen a URL (the resolver's crawl
//!   intersection, accuracy scoring) and needs no ids.
//! * [`SharedBytes`] / [`SharedStr`] — `Arc`-backed immutable buffers in the
//!   style of the `bytes` crate: cloning is a reference-count bump, never a
//!   byte copy.
//!
//! No external dependencies; the only workspace dependency is `vroom-html`
//! for the `Url` type itself.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
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
    hosts: BTreeSet<SharedStr>,
    /// Open-addressing index over `entries` with linear probing: a power of
    /// two long and at most half full, so every probe ends at an empty slot.
    index: Vec<Slot>,
}

/// One interned URL and the strings derived from it.
#[derive(Clone)]
struct Entry {
    url: Url,
    /// The URL's host, shared by every URL on the domain.
    host: SharedStr,
    /// The full rendering, built on the first `full_url` call.
    full: OnceLock<SharedStr>,
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
/// slot. The one probe of [`UrlTable`] and [`UrlSet`]; total: an empty
/// index ends the walk at once.
fn probe<S>(index: &[S], tag: u32, mut stop: impl FnMut(&S) -> bool) -> Option<(usize, &S)> {
    let mask = index.len().wrapping_sub(1);
    let mut pos = tag as usize & mask;
    loop {
        let slot = index.get(pos)?;
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
            Some(host) => host.share(),
            None => {
                let host = SharedStr::from(url.host.as_str());
                self.hosts.insert(host.share());
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
    /// after. Returns the shared string so callers can
    /// [`SharedStr::share`] it into headers without copying.
    pub fn full_url(&self, id: UrlId) -> &SharedStr {
        // vroom-lint: allow(panic-reachable) -- documented contract: panics only on a foreign id; wire paths use the total `url` API
        let entry = &self.entries[id.index()];
        entry
            .full
            .get_or_init(|| SharedStr::from(entry.url.to_string()))
    }

    /// The cached host of an interned URL. Every URL on a domain shares one
    /// allocation, so callers can [`SharedStr::share`] it into per-domain
    /// maps and events without copying.
    pub fn host(&self, id: UrlId) -> &SharedStr {
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

/// A membership-only set of borrowed URLs: [`UrlTable`]'s fixed-key hash
/// and linear probe, with each slot holding the URL's tag and a reference
/// to it instead of an id. It answers `insert` and `contains` and nothing
/// else; nothing iterates it, so its layout cannot reach an output.
#[derive(Default)]
pub struct UrlSet<'u> {
    /// A power of two long and at most half full, as `UrlTable::index`.
    slots: Vec<SetSlot<'u>>,
    /// URLs in the set.
    len: usize,
}

/// One `UrlSet` slot: empty, or a URL with its tag.
type SetSlot<'u> = Option<(u32, &'u Url)>;

impl<'u> UrlSet<'u> {
    /// An empty set that holds `n` URLs without growing.
    pub fn with_capacity(n: usize) -> Self {
        UrlSet {
            slots: vec![None; (n * 2).next_power_of_two().max(MIN_SLOTS)],
            len: 0,
        }
    }

    /// Add `url`; `true` if it was not in the set.
    pub fn insert(&mut self, url: &'u Url) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.widen();
        }
        let tag = tag_of(url);
        let Some((free, None)) = self.slot(url, tag) else {
            return false;
        };
        match self.slots.get_mut(free) {
            Some(slot) => {
                *slot = Some((tag, url));
                self.len += 1;
                true
            }
            None => false,
        }
    }

    /// Whether `url` is in the set.
    pub fn contains(&self, url: &Url) -> bool {
        self.slot(url, tag_of(url))
            .is_some_and(|(_, slot)| slot.is_some())
    }

    /// The slot holding `url`, or the empty slot its insert would fill,
    /// with its position.
    fn slot(&self, url: &Url, tag: u32) -> Option<(usize, &SetSlot<'u>)> {
        probe(&self.slots, tag, |s| {
            s.is_none_or(|(t, u)| t == tag && u == url)
        })
    }

    /// Double the slots and re-place every URL by its stored tag.
    fn widen(&mut self) {
        let mut slots = vec![None; (self.slots.len() * 2).max(MIN_SLOTS)];
        for (tag, url) in self.slots.iter().flatten() {
            let free = probe(&slots, *tag, Option::is_none).map(|(p, _)| p);
            if let Some(s) = free.and_then(|p| slots.get_mut(p)) {
                *s = Some((*tag, *url));
            }
        }
        self.slots = slots;
    }
}

impl<'u> FromIterator<&'u Url> for UrlSet<'u> {
    fn from_iter<I: IntoIterator<Item = &'u Url>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut set = UrlSet::with_capacity(iter.size_hint().0);
        for url in iter {
            set.insert(url);
        }
        set
    }
}

/// Immutable shared byte buffer: cloning bumps a reference count.
#[derive(Clone, Default)]
pub struct SharedBytes(Arc<[u8]>);

impl SharedBytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Another handle to the same buffer — a reference-count bump, never a
    /// byte copy. Spelled `share` (not `clone`) on hot paths so allocation
    /// audits can tell the two apart syntactically.
    pub fn share(&self) -> SharedBytes {
        SharedBytes(Arc::clone(&self.0))
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        SharedBytes(v.into())
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> Self {
        SharedBytes(v.into())
    }
}

impl From<String> for SharedBytes {
    fn from(s: String) -> Self {
        SharedBytes(s.into_bytes().into())
    }
}

impl From<&SharedStr> for SharedBytes {
    /// Zero-copy: reuses the string's allocation, bumping its refcount.
    fn from(s: &SharedStr) -> Self {
        SharedBytes(Arc::from(s.0.clone()))
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.len())
    }
}

/// Immutable shared string: cloning bumps a reference count.
#[derive(Clone)]
pub struct SharedStr(Arc<str>);

impl SharedStr {
    /// The string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Another handle to the same string — a reference-count bump, never a
    /// byte copy. Spelled `share` (not `clone`) on hot paths so allocation
    /// audits can tell the two apart syntactically.
    pub fn share(&self) -> SharedStr {
        SharedStr(Arc::clone(&self.0))
    }
}

impl Default for SharedStr {
    fn default() -> Self {
        SharedStr(Arc::from(""))
    }
}

impl Deref for SharedStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for SharedStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for SharedStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<String> for SharedStr {
    fn from(s: String) -> Self {
        SharedStr(s.into())
    }
}

impl From<&str> for SharedStr {
    fn from(s: &str) -> Self {
        SharedStr(s.into())
    }
}

impl PartialEq for SharedStr {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for SharedStr {}

impl PartialEq<str> for SharedStr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for SharedStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for SharedStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<SharedStr> for String {
    fn eq(&self, other: &SharedStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<SharedStr> for str {
    fn eq(&self, other: &SharedStr) -> bool {
        self == &*other.0
    }
}

impl PartialEq<SharedStr> for &str {
    fn eq(&self, other: &SharedStr) -> bool {
        *self == &*other.0
    }
}

impl std::hash::Hash for SharedStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (*self.0).hash(state)
    }
}

impl PartialOrd for SharedStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SharedStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
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
    fn shared_bytes_clone_shares_storage() {
        let b = SharedBytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn shared_str_clone_shares_storage() {
        let s = SharedStr::from("hello".to_string());
        let t = s.clone();
        assert_eq!(s.as_str(), "hello");
        assert_eq!(s.as_str().as_ptr(), t.as_str().as_ptr());
        assert_eq!(s, t);
    }

    #[test]
    fn share_is_a_refcount_bump() {
        let s = SharedStr::from("hot");
        let t = s.share();
        assert_eq!(s.as_str().as_ptr(), t.as_str().as_ptr());
        let b = SharedBytes::from(&s);
        let c = b.share();
        assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn shared_str_compares_and_hashes_like_str() {
        let s = SharedStr::from("abc");
        assert!(s == "abc");
        assert!(s == *"abc");
        assert!("abc" == s);
        let mut set = std::collections::HashSet::new();
        set.insert(SharedStr::from("x"));
        assert!(set.contains(&SharedStr::from("x")));
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
    fn url_set_tells_apart_urls_that_differ_in_one_field_or_byte() {
        let urls = [
            Url::https("a.com", "/x/y.js"),
            Url::new("http", "a.com", "/x/y.js"),
            Url::https("b.com", "/x/y.js"),
            Url::https("a.com", "/x/y.jt"),
            Url::https("a.com", "/x/y.j"),
        ];
        let copies = urls.clone();
        let mut set = UrlSet::default();
        for (k, (url, copy)) in urls.iter().zip(&copies).enumerate() {
            assert!(!set.contains(url), "{url} before its insert");
            assert!(set.insert(url), "{url} is new");
            assert!(!set.insert(copy), "{url} again, by an equal copy");
            for (j, other) in urls.iter().enumerate() {
                assert_eq!(set.contains(other), j <= k, "{other} after {url}");
            }
        }
        // Growing from the default re-places every URL.
        let many: Vec<Url> = (0..100)
            .map(|i| Url::https("a.com", format!("/{i}")))
            .collect();
        let mut grown = UrlSet::default();
        assert!(many.iter().chain(&urls).all(|u| grown.insert(u)));
        assert!(many.iter().chain(&urls).all(|u| grown.contains(u)));
        assert!(!grown.contains(&Url::https("a.com", "/100")));
    }

    #[test]
    fn url_set_keeps_apart_two_urls_with_one_tag() {
        // Birthday search over the fixed-key hash: a 32-bit tag collides
        // within about 80,000 URLs.
        let mut seen = std::collections::HashMap::new();
        let url = |i: u32| Url::https("a.com", format!("/p/{i}"));
        let (a, b) = (0..1u32 << 22)
            .find_map(|i| seen.insert(tag_of(&url(i)), i).map(|j| (url(j), url(i))))
            .expect("a tag collision among 4M URLs");
        assert_ne!(a, b);
        assert_eq!(tag_of(&a), tag_of(&b));
        let mut set = UrlSet::with_capacity(2);
        assert!(set.insert(&a));
        assert!(!set.contains(&b), "one tag, different URLs");
        assert!(set.insert(&b));
        assert!(!set.insert(&a) && !set.insert(&b));
        assert!(set.contains(&a) && set.contains(&b));
    }

    #[test]
    fn full_url_is_cached_and_matches_display() {
        let mut t = UrlTable::new();
        let id = t.intern(Url::https("a.com", "/x?q=1"));
        assert_eq!(t.full_url(id).as_str(), t.get(id).to_string());
        let p1 = t.full_url(id).as_str().as_ptr();
        let p2 = t.full_url(id).as_str().as_ptr();
        assert_eq!(p1, p2);
    }
}
