//! Batched dependency resolution: clients arriving within one batch window
//! share a single resolver pass.
//!
//! A front-end Vroom server under load sees many near-simultaneous requests
//! for the same page. Running the full offline-intersection + online-scan
//! pipeline per request would waste the work `resolve` already proved is a
//! pure function of `(site, hour, device, server seed)` — so the serving
//! path splits resolution in two:
//!
//! * [`run_pass`] — the expensive half, side-effect free: one resolver pass
//!   for one page at one quantized hour, producing a self-contained
//!   [`PassOutput`] (plain URLs, no table handles). Pure, so a batch of
//!   passes fans out over worker threads with no shared state.
//! * [`commit_pass_at`] — the cheap half, sequential: intern the pass
//!   output into the server's shared [`UrlTable`] and file each HTML's hint
//!   list in the shared [`HintStore`], versioned with the pass's hour
//!   bucket. Commit order is the caller's responsibility; committing in a
//!   deterministic order makes the store's id assignment deterministic too.
//!
//! The pass resolves against the *server's own* fresh render of the page
//! (crawler cookies, crawler nonce), not any individual client's bytes —
//! the only copy a shared store can be keyed on. Client-specific per-load
//! URLs are exactly what Vroom never hints, so sharing costs no hint the
//! per-client resolver would have kept.

use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_pages::{DeviceClass, LoadContext, Page, PageGenerator};
use vroom_sim::mix;

use crate::resolve::{resolve, Resolution, ResolverInput, Strategy, CRAWLER_USER};
use crate::store::HintStore;

/// One resolved hint target, table-free: `(url, tier, size_hint)`.
pub type PassHint = (Url, u8, u64);

/// The output of one resolver pass, self-contained so passes can run on
/// worker threads and be committed later in a deterministic order.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// `(html url, ordered hints)` per HTML response the page serves —
    /// the root document first, then each iframe document, in resolver
    /// (document) order.
    pub entries: Vec<(Url, Vec<PassHint>)>,
}

impl PassOutput {
    /// Total hints across every HTML of the pass.
    pub fn hint_count(&self) -> usize {
        self.entries.iter().map(|(_, h)| h.len()).sum()
    }
}

/// Quantize a wall-clock hour to the resolution-freshness bucket shared by
/// every client arriving within it.
pub fn hour_bucket(hours: f64) -> i64 {
    hours.floor() as i64
}

/// Run one resolver pass for `generator` at `hours` (quantized to its
/// [`hour_bucket`]) on behalf of every client in the batch. Pure: no shared
/// state is touched, so batches of passes parallelize freely.
pub fn run_pass(
    generator: &PageGenerator,
    hours: f64,
    device: DeviceClass,
    server_seed: u64,
) -> PassOutput {
    let bucket = hour_bucket(hours) as f64;
    let page = server_page(generator, bucket, device, server_seed);
    let input = ResolverInput::new(generator, bucket, device, server_seed);
    pass_of(&resolve(&input, &page, Strategy::Vroom))
}

/// The server's own current copy of the page: crawler cookie jar, a nonce
/// derived from (seed, bucket) so every pass in the bucket renders the
/// same bytes.
pub(crate) fn server_page(
    generator: &PageGenerator,
    bucket: f64,
    device: DeviceClass,
    server_seed: u64,
) -> Page {
    generator.snapshot(&LoadContext {
        hours: bucket,
        user_id: CRAWLER_USER,
        device,
        nonce: mix(server_seed, 0xBA7C4 ^ bucket as u64),
    })
}

/// The owned form of `resolution`: one entry per distinct document URL,
/// at the position of its first document and with the hints of its last,
/// the lists an interned resolution keys by that URL. Entries stay in
/// document order (the root, then iframes by resource id), so the commit
/// sequence is independent of intern history.
pub(crate) fn pass_of(resolution: &Resolution) -> PassOutput {
    let mut entries: Vec<(Url, Vec<PassHint>)> = Vec::with_capacity(resolution.docs.len());
    for (html, hints) in &resolution.docs {
        let targets = hints
            .iter()
            // vroom-lint: allow(hot-path-alloc) -- the pass output owns its URLs: once per (site, hour) pass, amortized across every client it serves
            .map(|h| (h.url.clone(), h.tier, h.size_hint))
            .collect();
        match entries.iter_mut().find(|(url, _)| url == *html) {
            Some(entry) => entry.1 = targets,
            // vroom-lint: allow(hot-path-alloc) -- the pass output owns its URLs: once per (site, hour) pass, amortized across every client it serves
            None => entries.push(((*html).clone(), targets)),
        }
    }
    PassOutput { entries }
}

/// Commit a pass into the shared store: intern every URL into `urls` and
/// file each HTML's hint list under its id, versioned with the hour
/// `bucket` the pass was resolved at — the input to the store's eviction
/// policies. Returns the store keys written, in entry order. Call
/// sequentially (the shared table needs `&mut`); the commit is cheap —
/// one hash probe per URL, which clones the URL only the first time the
/// table sees it, and one batched store write.
pub fn commit_pass_at(
    output: &PassOutput,
    store: &dyn HintStore,
    urls: &mut UrlTable,
    bucket: i64,
) -> Vec<UrlId> {
    // Intern in entry order (each HTML, then its targets) so id assignment
    // is byte-identical to a per-entry commit, then file every hint list in
    // one batched store pass — one write-lock acquisition per touched shard
    // instead of one per HTML.
    let mut written = Vec::with_capacity(output.entries.len());
    let mut batch = Vec::with_capacity(output.entries.len());
    for (html, targets) in &output.entries {
        let key = urls.intern_ref(html);
        let hints = targets
            .iter()
            .map(|(url, tier, size_hint)| vroom_browser::config::Hint {
                url: urls.intern_ref(url),
                tier: *tier,
                size_hint: *size_hint,
            })
            .collect();
        batch.push((key, hints));
        written.push(key);
    }
    store.put_many_at(batch, bucket);
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{EvictionPolicy, ShardedStore};
    use vroom_pages::SiteProfile;

    fn site() -> PageGenerator {
        PageGenerator::new(SiteProfile::news(), 4242)
    }

    #[test]
    fn pass_is_pure_and_deterministic() {
        let g = site();
        let a = run_pass(&g, 2000.4, DeviceClass::PhoneLarge, 9);
        let b = run_pass(&g, 2000.9, DeviceClass::PhoneLarge, 9);
        // Same hour bucket: byte-identical output regardless of the
        // sub-hour arrival offset.
        assert_eq!(a.entries.len(), b.entries.len());
        for ((ua, ha), (ub, hb)) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ua, ub);
            assert_eq!(ha, hb);
        }
        assert!(a.hint_count() > 0, "a news page resolves to hints");
        assert!(
            a.entries.len() > 1,
            "root plus iframe documents each get an entry"
        );
    }

    #[test]
    fn commit_fills_store_and_interns_deterministically() {
        let g = site();
        let pass = run_pass(&g, 2000.0, DeviceClass::PhoneLarge, 9);
        let sharded = ShardedStore::new(8);
        let single = ShardedStore::new(1);
        let mut urls_a = UrlTable::new();
        let mut urls_b = UrlTable::new();
        let keys_a = commit_pass_at(&pass, &sharded, &mut urls_a, 2000);
        let keys_b = commit_pass_at(&pass, &single, &mut urls_b, 2000);
        assert_eq!(
            keys_a, keys_b,
            "identical commit order assigns identical ids"
        );
        assert_eq!(urls_a, urls_b);
        assert_eq!(sharded.snapshot_versioned(), single.snapshot_versioned());
        assert_eq!(sharded.len(), pass.entries.len());
        // The root document's hints are retrievable through the store.
        let root = keys_a[0];
        let got = sharded
            .get_fresh(root, 2000, EvictionPolicy::Never)
            .into_hints()
            .expect("root entry");
        assert_eq!(got.len(), pass.entries[0].1.len());
    }

    #[test]
    fn commit_at_versions_entries_with_the_pass_bucket() {
        let g = site();
        let pass = run_pass(&g, 2003.0, DeviceClass::PhoneLarge, 9);
        let store = ShardedStore::new(4);
        let mut urls = UrlTable::new();
        let keys = commit_pass_at(&pass, &store, &mut urls, 2003);
        for (_, (_, bucket)) in store.snapshot_versioned() {
            assert_eq!(bucket, 2003);
        }
        // Fresh within a 1-bucket TTL at the next hour, evicted after.
        let root = keys[0];
        assert!(store
            .get_fresh(root, 2004, EvictionPolicy::Ttl(1))
            .into_hints()
            .is_some());
        assert!(store
            .get_fresh(root, 2005, EvictionPolicy::Ttl(1))
            .into_hints()
            .is_none());
    }

    #[test]
    fn hour_bucket_quantizes() {
        assert_eq!(hour_bucket(2000.0), 2000);
        assert_eq!(hour_bucket(2000.99), 2000);
        assert_eq!(hour_bucket(2001.0), 2001);
    }
}
