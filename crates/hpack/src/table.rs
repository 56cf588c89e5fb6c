//! HPACK indexing tables (RFC 7541 §2.3): the fixed static table and the
//! bounded FIFO dynamic table with size-based eviction.

use std::collections::VecDeque;
use std::sync::OnceLock;
use vroom_intern::SharedStr;

/// The static table, RFC 7541 Appendix A. Index 1 is `STATIC_TABLE[0]`.
pub const STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// Per-entry overhead charged against the dynamic table size (RFC 7541 §4.1).
pub const ENTRY_OVERHEAD: usize = 32;

/// Default `SETTINGS_HEADER_TABLE_SIZE` (RFC 7540 §6.5.2).
pub const DEFAULT_MAX_SIZE: usize = 4096;

/// One dynamic-table entry. Fields are refcounted so inserting a decoded or
/// encoded header shares its bytes with the caller instead of copying them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub name: SharedStr,
    pub value: SharedStr,
}

impl Entry {
    /// The entry's size as defined by RFC 7541 §4.1.
    pub fn size(&self) -> usize {
        self.name.len() + self.value.len() + ENTRY_OVERHEAD
    }
}

/// The dynamic table: newest entry has the lowest dynamic index.
#[derive(Debug)]
pub struct DynamicTable {
    entries: VecDeque<Entry>,
    size: usize,
    max_size: usize,
    /// Protocol ceiling for `max_size` (from HTTP/2 SETTINGS); dynamic-size
    /// updates in the header block may not exceed it.
    capacity_limit: usize,
}

impl Default for DynamicTable {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_SIZE)
    }
}

impl DynamicTable {
    /// A table with the given maximum size (and protocol limit equal to it).
    pub fn new(max_size: usize) -> Self {
        DynamicTable {
            entries: VecDeque::new(),
            size: 0,
            max_size,
            capacity_limit: max_size,
        }
    }

    /// Current occupied size in RFC 7541 units.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current maximum size.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// The protocol ceiling for dynamic-size updates.
    pub fn capacity_limit(&self) -> usize {
        self.capacity_limit
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply a dynamic table size update (RFC 7541 §6.3). Returns `false` if
    /// the requested size exceeds the protocol limit.
    pub fn set_max_size(&mut self, max: usize) -> bool {
        if max > self.capacity_limit {
            return false;
        }
        self.max_size = max;
        self.evict();
        true
    }

    /// Raise (or lower) the protocol ceiling, e.g. on a SETTINGS change.
    pub fn set_capacity_limit(&mut self, limit: usize) {
        self.capacity_limit = limit;
        if self.max_size > limit {
            self.max_size = limit;
            self.evict();
        }
    }

    /// Insert at the head, evicting from the tail as needed (RFC 7541 §4.4).
    /// An entry larger than the whole table empties the table.
    pub fn insert(&mut self, name: SharedStr, value: SharedStr) {
        let entry = Entry { name, value };
        let esize = entry.size();
        if esize > self.max_size {
            self.entries.clear();
            self.size = 0;
            return;
        }
        self.size += esize;
        self.entries.push_front(entry);
        self.evict();
    }

    fn evict(&mut self) {
        while self.size > self.max_size {
            let Some(e) = self.entries.pop_back() else {
                // Size accounting drifted from the entry list (should be
                // impossible); resynchronize instead of spinning.
                self.size = 0;
                return;
            };
            self.size = self.size.saturating_sub(e.size());
        }
    }

    /// Look up by 1-based *dynamic* index (1 = newest).
    pub fn get(&self, dyn_index: usize) -> Option<&Entry> {
        if dyn_index == 0 {
            return None;
        }
        self.entries.get(dyn_index - 1)
    }

    /// Find the dynamic index of an exact (name, value) match.
    pub fn find(&self, name: &str, value: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.name == name && e.value == value)
            .map(|i| i + 1)
    }

    /// Find the dynamic index of any entry with this name.
    pub fn find_name(&self, name: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| i + 1)
    }
}

/// The static table as `SharedStr`s, built once per process so indexed
/// fields resolve to refcount bumps rather than fresh allocations.
fn static_shared() -> &'static [(SharedStr, SharedStr)] {
    static SHARED: OnceLock<Vec<(SharedStr, SharedStr)>> = OnceLock::new();
    SHARED.get_or_init(|| {
        STATIC_TABLE
            .iter()
            .map(|&(n, v)| (SharedStr::from(n), SharedStr::from(v)))
            .collect()
    })
}

/// Resolve a combined 1-based HPACK index against static + dynamic tables,
/// as owned handles sharing the table's storage: no header bytes are copied
/// on either the static or the dynamic path.
pub fn resolve_shared(table: &DynamicTable, index: usize) -> Option<(SharedStr, SharedStr)> {
    if index == 0 {
        return None;
    }
    if let Some((n, v)) = static_shared().get(index - 1) {
        return Some((n.share(), v.share()));
    }
    table
        .get(index - STATIC_TABLE.len())
        .map(|e| (e.name.share(), e.value.share()))
}

/// Search static then dynamic table for an exact match; returns the combined
/// index.
pub fn find(table: &DynamicTable, name: &str, value: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .position(|&(n, v)| n == name && v == value)
        .map(|i| i + 1)
        .or_else(|| table.find(name, value).map(|i| i + STATIC_TABLE.len()))
}

/// Search for a name-only match; returns the combined index.
pub fn find_name(table: &DynamicTable, name: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .position(|&(n, _)| n == name)
        .map(|i| i + 1)
        .or_else(|| table.find_name(name).map(|i| i + STATIC_TABLE.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_spot_checks() {
        assert_eq!(STATIC_TABLE[0], (":authority", ""));
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[7], (":status", "200"));
        assert_eq!(STATIC_TABLE[44], ("link", ""));
        assert_eq!(STATIC_TABLE[60], ("www-authenticate", ""));
        assert_eq!(STATIC_TABLE.len(), 61);
    }

    #[test]
    fn insert_and_lookup_newest_first() {
        let mut t = DynamicTable::new(4096);
        t.insert("a".into(), "1".into());
        t.insert("b".into(), "2".into());
        assert_eq!(t.get(1).unwrap().name, "b");
        assert_eq!(t.get(2).unwrap().name, "a");
        assert_eq!(t.get(3), None);
        assert_eq!(t.size(), 2 * (1 + 1 + 32));
    }

    #[test]
    fn eviction_on_overflow() {
        // Each entry: 1 + 1 + 32 = 34 bytes. Table fits exactly 2.
        let mut t = DynamicTable::new(68);
        t.insert("a".into(), "1".into());
        t.insert("b".into(), "2".into());
        t.insert("c".into(), "3".into());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).unwrap().name, "c");
        assert_eq!(t.get(2).unwrap().name, "b");
    }

    #[test]
    fn oversized_entry_clears_table() {
        let mut t = DynamicTable::new(40);
        t.insert("a".into(), "1".into());
        t.insert("x".repeat(64).into(), "y".into());
        assert!(t.is_empty());
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn set_max_size_evicts_and_respects_limit() {
        let mut t = DynamicTable::new(4096);
        for i in 0..10 {
            t.insert(format!("h{i}").into(), "v".into());
        }
        assert!(t.set_max_size(35 * 2)); // fits two small entries
        assert!(t.len() <= 2);
        assert!(!t.set_max_size(8192), "cannot exceed protocol limit");
    }

    #[test]
    fn capacity_limit_shrinks_max() {
        let mut t = DynamicTable::new(4096);
        t.insert("a".into(), "1".into());
        t.set_capacity_limit(10);
        assert_eq!(t.max_size(), 10);
        assert!(t.is_empty());
    }

    #[test]
    fn resolve_shared_shares_table_storage() {
        let mut t = DynamicTable::new(4096);
        t.insert("x-vroom".into(), "1".into());
        let (n, v) = resolve_shared(&t, 62).unwrap();
        assert_eq!(n, "x-vroom");
        assert_eq!(v, "1");
        assert_eq!(
            n.as_str().as_ptr(),
            t.get(1).unwrap().name.as_str().as_ptr(),
            "dynamic hit shares the entry's bytes"
        );
        let (n, v) = resolve_shared(&t, 2).unwrap();
        assert_eq!((n.as_str(), v.as_str()), (":method", "GET"));
        assert_eq!(resolve_shared(&t, 0), None);
        assert_eq!(resolve_shared(&t, 63), None);
    }

    #[test]
    fn find_prefers_static() {
        let mut t = DynamicTable::new(4096);
        t.insert(":method".into(), "GET".into());
        assert_eq!(find(&t, ":method", "GET"), Some(2));
        assert_eq!(find_name(&t, ":method"), Some(2));
        assert_eq!(find(&t, ":method", "PATCH"), None);
        t.insert("x-unimportant".into(), "u".into());
        assert_eq!(find(&t, "x-unimportant", "u"), Some(62));
        assert_eq!(find_name(&t, "x-unimportant"), Some(62));
    }
}
