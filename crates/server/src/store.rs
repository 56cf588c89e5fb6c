//! The shared hint store: the server-side state a fleet of concurrent
//! clients reads and the resolver writes.
//!
//! A front-end Vroom deployment serves many loads at once, and every one of
//! them consults the same dependency metadata. The store is therefore
//! read-mostly: resolver passes write an HTML's hint list once per
//! freshness window, then thousands of loads read it. [`HintStore`] is the
//! trait boundary between the serving path and the storage layout; its one
//! implementation is [`ShardedStore`] — `N` independent shards, each a
//! `RwLock` over its own map, routed by [`UrlId::shard`] (a pure function of
//! the id value, so routing is stable as the intern table grows and entries
//! never migrate). Readers on different shards never contend; writers block
//! only their own shard. `ShardedStore::new(1)` is the single-lock layout;
//! the fleet proptests pin every shard count to a plain ordered-map model.
//!
//! Every entry is versioned with the hour bucket it was resolved at, and
//! reads classify entries through an [`EvictionPolicy`]:
//!
//! * [`EvictionPolicy::Never`] — age is ignored; byte-identical to the
//!   pre-freshness store.
//! * [`EvictionPolicy::Ttl`] — an entry older than the TTL is logically
//!   evicted at read time: the read counts as stale and returns a miss.
//!   Physical removal is a separate, sequential [`evict_resolved_before`]
//!   sweep so the parallel load phase never mutates the maps.
//! * [`EvictionPolicy::RefreshOnMiss`] — a stale entry is still served
//!   (counted as a hit *and* as stale) so the caller can schedule a
//!   re-resolution admission while this load proceeds on old hints.
//!
//! [`evict_resolved_before`]: HintStore::evict_resolved_before
//!
//! Each shard keeps access counters (reads, hits, writes, entries) plus
//! freshness counters (stale classifications, evictions). The counters are
//! *logical*: every operation bumps its shard's counter exactly once, so
//! totals are a pure function of the workload — identical at any worker
//! count or scheduling — even though the increments themselves race. That
//! property is what lets the fleet report shard "contention" figures while
//! staying byte-deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use vroom_browser::config::Hint;
use vroom_intern::UrlId;

/// Logical access counters for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Reads routed to this shard.
    pub reads: u64,
    /// Reads that served an entry (fresh or stale).
    pub hits: u64,
    /// Writes routed to this shard.
    pub writes: u64,
    /// Live entries.
    pub entries: u64,
}

/// Logical freshness counters for one shard, kept separate from
/// [`ShardStats`] so the pre-freshness report formats stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshnessStats {
    /// Reads that classified their entry as stale under the caller's
    /// policy (whether it was then served or logically evicted).
    pub stale: u64,
    /// Entries physically removed by eviction sweeps.
    pub evictions: u64,
}

/// When a stored hint list stops being served as fresh. Ages are measured
/// in whole hour buckets: an entry resolved at bucket `b` read at bucket
/// `now` has age `now - b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Entries never age out — the pre-freshness behavior.
    Never,
    /// Entries older than this many buckets are logically evicted at read
    /// time (the read misses) and removed by the next eviction sweep.
    Ttl(u64),
    /// Entries older than this many buckets are still served, but the read
    /// reports them stale so the caller can admit a re-resolution.
    RefreshOnMiss(u64),
}

impl EvictionPolicy {
    /// Age (in buckets) beyond which an entry is stale; `None` = never.
    fn stale_after(&self) -> Option<u64> {
        match self {
            EvictionPolicy::Never => None,
            EvictionPolicy::Ttl(h) | EvictionPolicy::RefreshOnMiss(h) => Some(*h),
        }
    }

    /// Stable label for reports: `never`, `ttl(4)`, `refresh-on-miss(1)`.
    pub fn label(&self) -> String {
        match self {
            EvictionPolicy::Never => "never".into(),
            // vroom-lint: allow(hot-path-alloc) -- report label, built once per report render
            EvictionPolicy::Ttl(h) => format!("ttl({h})"),
            // vroom-lint: allow(hot-path-alloc) -- report label, built once per report render
            EvictionPolicy::RefreshOnMiss(h) => format!("refresh-on-miss({h})"),
        }
    }
}

/// The outcome of one policy-aware read.
#[derive(Debug, Clone, PartialEq)]
pub enum FreshRead {
    /// No live entry (or the policy logically evicted it).
    Miss,
    /// A live entry within its freshness window.
    Fresh {
        /// The stored hint list (Arc-shared, never copied).
        hints: Arc<Vec<Hint>>,
        /// Buckets since the entry was resolved.
        age_hours: u64,
    },
    /// A stale entry served anyway ([`EvictionPolicy::RefreshOnMiss`]):
    /// the caller should schedule a re-resolution.
    Stale {
        /// The stored hint list.
        hints: Arc<Vec<Hint>>,
        /// Buckets since the entry was resolved.
        age_hours: u64,
    },
}

impl FreshRead {
    /// Consume into the served hints, if any.
    pub fn into_hints(self) -> Option<Arc<Vec<Hint>>> {
        match self {
            FreshRead::Miss => None,
            FreshRead::Fresh { hints, .. } | FreshRead::Stale { hints, .. } => Some(hints),
        }
    }

    /// Whether this read served a stale entry.
    pub fn is_stale(&self) -> bool {
        matches!(self, FreshRead::Stale { .. })
    }
}

/// One stored entry: the hint list plus the hour bucket it was resolved at.
type Entry = (Arc<Vec<Hint>>, i64);

/// Classify one looked-up entry under `policy` at `now_bucket`. Returns the
/// read plus whether it counts as a hit and whether it counts as stale.
fn classify(
    found: Option<&Entry>,
    now_bucket: i64,
    policy: EvictionPolicy,
) -> (FreshRead, bool, bool) {
    let Some((hints, bucket)) = found else {
        return (FreshRead::Miss, false, false);
    };
    let age_hours = now_bucket.saturating_sub(*bucket).max(0) as u64;
    match policy.stale_after() {
        Some(limit) if age_hours > limit => match policy {
            // Logical eviction: the read misses; the entry stays until the
            // next sequential sweep so reads never mutate the map.
            EvictionPolicy::Ttl(_) => (FreshRead::Miss, false, true),
            _ => (
                FreshRead::Stale {
                    hints: Arc::clone(hints),
                    age_hours,
                },
                true,
                true,
            ),
        },
        _ => (
            FreshRead::Fresh {
                hints: Arc::clone(hints),
                age_hours,
            },
            true,
            false,
        ),
    }
}

/// Shared dependency-hint storage, keyed by the interned URL of the HTML
/// response that carries the hints.
///
/// Values are `Arc`-shared: a read hands back a reference-counted handle,
/// never a copy of the hint list, so concurrent readers share one
/// allocation.
pub trait HintStore: Send + Sync {
    /// Policy-aware read: the hints for `key` classified by age relative to
    /// `now_bucket`. Counts one read; a hit only when the policy serves the
    /// entry; one stale count when the entry is past its window.
    fn get_fresh(&self, key: UrlId, now_bucket: i64, policy: EvictionPolicy) -> FreshRead;

    /// Store (or replace) the hints for `key`, versioned with the hour
    /// bucket they were resolved at. Counts one write.
    fn put_at(&self, key: UrlId, hints: Vec<Hint>, bucket: i64);

    /// Policy-aware batched read, in input order. Logically identical to
    /// one [`get_fresh`](Self::get_fresh) per key — same counter bumps,
    /// same results — but each touched shard's lock is taken once for the
    /// whole slice instead of once per key.
    fn get_fresh_many(
        &self,
        keys: &[UrlId],
        now_bucket: i64,
        policy: EvictionPolicy,
    ) -> Vec<FreshRead>;

    /// Versioned batched write. Logically identical to one
    /// [`put_at`](Self::put_at) per pair in order — same counters, and
    /// duplicate keys resolve last-write-wins — with the same batched
    /// locking as [`get_fresh_many`](Self::get_fresh_many).
    fn put_many_at(&self, entries: Vec<(UrlId, Vec<Hint>)>, bucket: i64);

    /// Physically remove every entry resolved before `min_bucket`,
    /// returning how many were removed. Call sequentially between batches
    /// (the Ttl sweep); reads never mutate, so this is the only path that
    /// shrinks the maps.
    fn evict_resolved_before(&self, min_bucket: i64) -> u64;

    /// Per-shard counters, in shard order.
    fn shard_stats(&self) -> Vec<ShardStats>;

    /// Per-shard freshness counters, parallel to
    /// [`shard_stats`](Self::shard_stats).
    fn freshness_stats(&self) -> Vec<FreshnessStats>;

    /// The full contents with each entry's resolution bucket, merged
    /// across shards into one ordered map — the canonical form the
    /// equivalence proptests compare.
    fn snapshot_versioned(&self) -> BTreeMap<UrlId, (Arc<Vec<Hint>>, i64)>;

    /// Total live entries across every shard.
    fn len(&self) -> usize {
        self.shard_stats().iter().map(|s| s.entries as usize).sum()
    }

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Recover a lock whether or not a holder panicked: the maps hold plain
/// data whose invariants every critical section re-establishes before
/// unlocking, so a poisoned lock is safe to keep using.
fn unpoison<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(|e| e.into_inner())
}

/// One shard: an independent map plus its logical counters.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<BTreeMap<UrlId, Entry>>,
    reads: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

/// The production layout: reads take a shard-local read lock, writes a
/// shard-local write lock, and operations on different shards proceed
/// fully in parallel.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
}

impl ShardedStore {
    /// A store with `shards` shards (`shards == 0` is clamped to 1).
    pub fn new(shards: usize) -> Self {
        ShardedStore {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// The per-key operations are the batched ones over a single key, so the
/// store has one read path and one write path. Shard indices come from
/// `UrlId::shard`, which is `< len` by construction (proven by the routing
/// proptest); the checked lookups keep the serving path panic-free
/// regardless.
impl HintStore for ShardedStore {
    fn get_fresh(&self, key: UrlId, now_bucket: i64, policy: EvictionPolicy) -> FreshRead {
        let mut read = self.get_fresh_many(&[key], now_bucket, policy);
        read.pop().unwrap_or(FreshRead::Miss)
    }

    fn put_at(&self, key: UrlId, hints: Vec<Hint>, bucket: i64) {
        self.put_many_at(vec![(key, hints)], bucket);
    }

    fn get_fresh_many(
        &self,
        keys: &[UrlId],
        now_bucket: i64,
        policy: EvictionPolicy,
    ) -> Vec<FreshRead> {
        let mut out = vec![FreshRead::Miss; keys.len()];
        // Group input indices by shard so each touched shard's read lock is
        // taken exactly once for the batch.
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            by_shard
                .entry(k.shard(self.shards.len()))
                .or_default()
                .push(i);
        }
        for (s, idxs) in by_shard {
            let Some(shard) = self.shards.get(s) else {
                continue;
            };
            shard.reads.fetch_add(idxs.len() as u64, Ordering::Relaxed);
            let mut hits = 0u64;
            let mut stale = 0u64;
            // vroom-lint: allow(lock-in-hot-loop) -- one acquisition per touched shard per batch IS the hoisted form this rule asks for
            let map = unpoison(shard.map.read());
            for i in idxs {
                let (read, hit, is_stale) = classify(map.get(&keys[i]), now_bucket, policy);
                hits += hit as u64;
                stale += is_stale as u64;
                out[i] = read;
            }
            drop(map);
            shard.hits.fetch_add(hits, Ordering::Relaxed);
            shard.stale.fetch_add(stale, Ordering::Relaxed);
        }
        out
    }

    fn put_many_at(&self, entries: Vec<(UrlId, Vec<Hint>)>, bucket: i64) {
        // Group by shard, preserving entry order within each shard: a
        // duplicate key routes to one shard, so last-write-wins matches the
        // sequential per-key commit.
        let mut by_shard: BTreeMap<usize, Vec<(UrlId, Vec<Hint>)>> = BTreeMap::new();
        for (k, h) in entries {
            by_shard
                .entry(k.shard(self.shards.len()))
                .or_default()
                .push((k, h));
        }
        for (s, batch) in by_shard {
            let Some(shard) = self.shards.get(s) else {
                continue;
            };
            shard
                .writes
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            // vroom-lint: allow(lock-in-hot-loop) -- one acquisition per touched shard per batch IS the hoisted form this rule asks for
            let mut map = unpoison(shard.map.write());
            for (k, h) in batch {
                map.insert(k, (Arc::new(h), bucket));
            }
        }
    }

    fn evict_resolved_before(&self, min_bucket: i64) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            let removed = {
                // vroom-lint: allow(lock-in-hot-loop) -- sequential sweep: one write acquisition per shard, between batches
                let mut map = unpoison(shard.map.write());
                let before = map.len();
                map.retain(|_, (_, b)| *b >= min_bucket);
                (before - map.len()) as u64
            };
            shard.evictions.fetch_add(removed, Ordering::Relaxed);
            total += removed;
        }
        total
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                reads: s.reads.load(Ordering::Relaxed),
                hits: s.hits.load(Ordering::Relaxed),
                writes: s.writes.load(Ordering::Relaxed),
                entries: unpoison(s.map.read()).len() as u64,
            })
            .collect()
    }

    fn freshness_stats(&self) -> Vec<FreshnessStats> {
        self.shards
            .iter()
            .map(|s| FreshnessStats {
                stale: s.stale.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn snapshot_versioned(&self) -> BTreeMap<UrlId, Entry> {
        let mut merged = BTreeMap::new();
        for shard in &self.shards {
            // Copy the shard (Arc bumps, not hint copies) under its read
            // guard and merge after the guard drops: the merge work never
            // runs inside the critical section.
            let part = unpoison(shard.map.read()).clone();
            merged.extend(part);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hint(id: u32, tier: u8) -> Hint {
        Hint {
            url: UrlId::from_index(id as usize),
            tier,
            size_hint: 100,
        }
    }

    fn keys(n: u32) -> Vec<UrlId> {
        (0..n).map(|i| UrlId::from_index(i as usize)).collect()
    }

    /// An age-blind read at bucket 0.
    fn get(store: &ShardedStore, key: UrlId) -> Option<Arc<Vec<Hint>>> {
        store.get_fresh(key, 0, EvictionPolicy::Never).into_hints()
    }

    #[test]
    fn put_get_roundtrip_both_layouts() {
        // One shard is the single-lock layout; four is the sharded one.
        for store in [ShardedStore::new(1), ShardedStore::new(4)] {
            let k = UrlId::from_index(3);
            assert!(get(&store, k).is_none());
            store.put_at(k, vec![hint(7, 0), hint(8, 2)], 0);
            let got = get(&store, k).expect("stored entry");
            assert_eq!(got.len(), 2);
            assert_eq!(got[0], hint(7, 0));
            assert_eq!(store.len(), 1);
            // Replacement keeps one live entry.
            store.put_at(k, vec![hint(9, 1)], 0);
            assert_eq!(store.len(), 1);
            assert_eq!(get(&store, k).expect("replaced")[0], hint(9, 1));
        }
    }

    #[test]
    fn counters_are_logical_access_counts() {
        let store = ShardedStore::new(8);
        for &k in keys(16).iter() {
            store.put_at(k, vec![hint(0, 0)], 0);
        }
        for &k in keys(32).iter() {
            let _ = get(&store, k); // 16 hits, 16 misses
        }
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 8);
        let total = |f: fn(&ShardStats) -> u64| stats.iter().map(f).sum::<u64>();
        assert_eq!(total(|s| s.writes), 16);
        assert_eq!(total(|s| s.reads), 32);
        assert_eq!(total(|s| s.hits), 16);
        assert_eq!(total(|s| s.entries), 16);
        // Age-blind reads never classify anything stale or evict.
        let fresh = store.freshness_stats();
        assert_eq!(fresh.len(), 8);
        assert_eq!(fresh_total(&store), FreshnessStats::default());
        // Fibonacci routing actually spreads the dense low ids.
        let populated = stats.iter().filter(|s| s.entries > 0).count();
        assert!(populated >= 4, "16 keys landed on only {populated} shards");
    }

    #[test]
    fn snapshot_merges_shards_into_the_unsharded_view() {
        let sharded = ShardedStore::new(5);
        let single = ShardedStore::new(1);
        for &k in keys(20).iter() {
            let hints = vec![hint(k.index() as u32, (k.index() % 3) as u8)];
            let bucket = 2000 + k.index() as i64 % 4;
            sharded.put_at(k, hints.clone(), bucket);
            single.put_at(k, hints, bucket);
        }
        assert_eq!(sharded.snapshot_versioned(), single.snapshot_versioned());
        assert_eq!(sharded.snapshot_versioned().len(), 20);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
        store.put_at(UrlId::from_index(0), vec![hint(1, 0)], 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shared_value_is_refcounted_not_copied() {
        let store = ShardedStore::new(2);
        let k = UrlId::from_index(1);
        store.put_at(k, vec![hint(2, 0)], 0);
        let a = get(&store, k).expect("entry");
        let b = get(&store, k).expect("entry");
        assert!(Arc::ptr_eq(&a, &b), "readers share one allocation");
    }

    #[test]
    fn ttl_classifies_by_age_and_never_ignores_it() {
        for store in [ShardedStore::new(1), ShardedStore::new(4)] {
            let k = UrlId::from_index(5);
            store.put_at(k, vec![hint(1, 0)], 2000);
            // Within the window: fresh, with the age reported.
            match store.get_fresh(k, 2001, EvictionPolicy::Ttl(1)) {
                FreshRead::Fresh { age_hours, .. } => assert_eq!(age_hours, 1),
                other => panic!("expected fresh, got {other:?}"),
            }
            // Past the window: logical eviction — a miss, counted stale.
            assert_eq!(
                store.get_fresh(k, 2002, EvictionPolicy::Ttl(1)),
                FreshRead::Miss
            );
            // Never ignores age entirely.
            match store.get_fresh(k, 9000, EvictionPolicy::Never) {
                FreshRead::Fresh { age_hours, .. } => assert_eq!(age_hours, 7000),
                other => panic!("expected fresh, got {other:?}"),
            }
            let stats = store.shard_stats();
            assert_eq!(stats.iter().map(|s| s.reads).sum::<u64>(), 3);
            assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 2);
            assert_eq!(fresh_total(&store).stale, 1);
            // Logical eviction does not shrink the map; the sweep does.
            assert_eq!(store.len(), 1);
            assert_eq!(store.evict_resolved_before(2001), 1);
            assert_eq!(store.len(), 0);
            assert_eq!(fresh_total(&store).evictions, 1);
        }
    }

    #[test]
    fn refresh_on_miss_serves_stale_and_flags_it() {
        for store in [ShardedStore::new(1), ShardedStore::new(4)] {
            let k = UrlId::from_index(9);
            store.put_at(k, vec![hint(3, 1)], 100);
            let read = store.get_fresh(k, 105, EvictionPolicy::RefreshOnMiss(2));
            match &read {
                FreshRead::Stale { hints, age_hours } => {
                    assert_eq!(*age_hours, 5);
                    assert_eq!(hints[0], hint(3, 1));
                }
                other => panic!("expected stale, got {other:?}"),
            }
            assert!(read.is_stale());
            // Stale serves still count as hits — the load got its hints.
            let stats = store.shard_stats();
            assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 1);
            assert_eq!(fresh_total(&store).stale, 1);
            // Re-resolving at the current bucket makes it fresh again.
            store.put_at(k, vec![hint(4, 0)], 105);
            assert!(!store
                .get_fresh(k, 105, EvictionPolicy::RefreshOnMiss(2))
                .is_stale());
        }
    }

    #[test]
    fn eviction_sweep_only_removes_older_entries() {
        let store = ShardedStore::new(3);
        store.put_at(UrlId::from_index(0), vec![hint(1, 0)], 10);
        store.put_at(UrlId::from_index(1), vec![hint(2, 0)], 12);
        store.put_at(UrlId::from_index(2), vec![hint(3, 0)], 14);
        assert_eq!(store.evict_resolved_before(12), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.evict_resolved_before(12), 0, "sweep is idempotent");
        let buckets: Vec<i64> = store
            .snapshot_versioned()
            .values()
            .map(|(_, b)| *b)
            .collect();
        assert_eq!(buckets, vec![12, 14]);
    }

    #[test]
    fn batched_fresh_reads_match_per_key_reads() {
        let batched = ShardedStore::new(4);
        let per_key = ShardedStore::new(4);
        let entries: Vec<(UrlId, Vec<Hint>)> = keys(12)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, vec![hint(i as u32, 0)]))
            .collect();
        for (k, h) in entries.clone() {
            per_key.put_at(k, h, 2001);
        }
        batched.put_many_at(entries, 2001);
        assert_eq!(batched.snapshot_versioned(), per_key.snapshot_versioned());
        let probe = keys(16);
        for (now, policy) in [
            (2001, EvictionPolicy::Never),
            (2003, EvictionPolicy::Ttl(1)),
            (2003, EvictionPolicy::RefreshOnMiss(1)),
        ] {
            let a = batched.get_fresh_many(&probe, now, policy);
            let b: Vec<FreshRead> = probe
                .iter()
                .map(|&k| per_key.get_fresh(k, now, policy))
                .collect();
            assert_eq!(a, b);
        }
        assert_eq!(batched.shard_stats(), per_key.shard_stats());
        assert_eq!(batched.freshness_stats(), per_key.freshness_stats());
        assert_eq!(fresh_total(&batched).stale, 24);
    }

    fn fresh_total(store: &ShardedStore) -> FreshnessStats {
        store
            .freshness_stats()
            .iter()
            .fold(FreshnessStats::default(), |acc, f| FreshnessStats {
                stale: acc.stale + f.stale,
                evictions: acc.evictions + f.evictions,
            })
    }
}
