//! Accuracy scoring for server-side dependency resolution (paper §6.2,
//! Fig 21).
//!
//! The ground truth is the *predictable subset*: URLs that are identical
//! across back-to-back loads of the page, restricted to resources derived
//! from the root HTML excluding those derived from embedded HTMLs (the
//! scope a root-HTML response can legitimately cover).

use crate::resolve::{resolve, ResolverInput, Strategy, UrlHint};
use std::collections::{BTreeSet, HashSet};
use vroom_html::Url;
use vroom_pages::{LoadContext, Page, PageGenerator, Resource};

/// Accuracy of one strategy on one page load.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Fraction of the predictable subset the server missed.
    pub false_negative: f64,
    /// Extraneous URLs returned, as a fraction of the predictable subset.
    pub false_positive: f64,
    /// |predictable| / |scope| by resource count (Fig 21a).
    pub predictable_count_frac: f64,
    /// Same by bytes (Fig 21a).
    pub predictable_bytes_frac: f64,
}

/// Whether `r` is in scope: derived from the root HTML, not from an
/// iframe.
fn in_scope(r: &Resource) -> bool {
    r.id != 0 && r.iframe_root.is_none()
}

/// The client side of an accuracy score: the client's load at one context
/// and the predictable subset of it that a back-to-back repeat defines.
/// Neither depends on the strategy scored or on when its hints were
/// resolved, so one truth scores any number of them.
pub struct ClientTruth {
    ctx: LoadContext,
    load: Page,
    predictable: BTreeSet<Url>,
    predictable_count_frac: f64,
    predictable_bytes_frac: f64,
}

impl ClientTruth {
    /// The truth of `generator`'s page as a client loads it at `ctx`.
    pub fn new(generator: &PageGenerator, ctx: &LoadContext) -> Self {
        let load = generator.snapshot(ctx);
        let repeat = generator.snapshot(&ctx.back_to_back(ctx.nonce ^ 0xB2B));
        let scope: Vec<&Resource> = load.resources.iter().filter(|r| in_scope(r)).collect();
        let scope_urls: BTreeSet<&Url> = scope.iter().map(|r| &r.url).collect();
        let predictable: BTreeSet<Url> = repeat
            .resources
            .into_iter()
            .filter(|r| in_scope(r) && scope_urls.contains(&r.url))
            .map(|r| r.url)
            .collect();
        let total_bytes: u64 = scope.iter().map(|r| r.size).sum();
        let predictable_bytes: u64 = scope
            .iter()
            .filter(|r| predictable.contains(&r.url))
            .map(|r| r.size)
            .sum();
        let predictable_count_frac = predictable.len() as f64 / scope.len().max(1) as f64;
        let predictable_bytes_frac = predictable_bytes as f64 / total_bytes.max(1) as f64;
        ClientTruth {
            ctx: *ctx,
            load,
            predictable,
            predictable_count_frac,
            predictable_bytes_frac,
        }
    }

    /// Score the URLs of a server's hint list against the predictable
    /// subset, each distinct URL once.
    fn score(&self, hints: &[UrlHint]) -> Accuracy {
        let mut server_set = HashSet::with_capacity(hints.len());
        let fp_count = hints
            .iter()
            .filter(|h| server_set.insert(h.url) && !self.predictable.contains(h.url))
            .count();
        let fn_count = self
            .predictable
            .iter()
            .filter(|u| !server_set.contains(u))
            .count();
        let denom = self.predictable.len().max(1) as f64;
        Accuracy {
            false_negative: fn_count as f64 / denom,
            false_positive: fp_count as f64 / denom,
            predictable_count_frac: self.predictable_count_frac,
            predictable_bytes_frac: self.predictable_bytes_frac,
        }
    }
}

/// Evaluate one strategy against one client load (plus its back-to-back
/// repeat, which defines predictability).
pub fn evaluate(
    generator: &PageGenerator,
    ctx: &LoadContext,
    strategy: Strategy,
    server_seed: u64,
) -> Accuracy {
    let input = ResolverInput::new(generator, ctx.hours, ctx.device, server_seed);
    evaluate_with(&input, &ClientTruth::new(generator, ctx), None, strategy)
}

/// Evaluate hints that were resolved `age_hours` before the client's load:
/// the resolver runs against the *server's own* render at the older hour
/// (crawler identity, the copy a shared store is keyed on — exactly what
/// [`crate::batch::run_pass`] serves), while the predictable subset is
/// still `truth`'s, the client's load at its own hour. `age_hours == 0` is
/// the freshest a shared store can be; growing ages trace the
/// accuracy-vs-staleness frontier.
pub fn evaluate_aged(
    generator: &PageGenerator,
    truth: &ClientTruth,
    strategy: Strategy,
    server_seed: u64,
    age_hours: u64,
) -> Accuracy {
    // The server's copy at resolution time, quantized the way the batch
    // path quantizes passes (same bucket, same crawler nonce derivation).
    let ctx = &truth.ctx;
    let bucket = crate::batch::hour_bucket(ctx.hours - age_hours as f64) as f64;
    let server_page = crate::batch::server_page(generator, bucket, ctx.device, server_seed);
    let input = ResolverInput::new(generator, bucket, ctx.device, server_seed);
    evaluate_with(&input, truth, Some(&server_page), strategy)
}

/// The scorer behind [`evaluate`] and [`evaluate_aged`], for callers that
/// tune the resolver (e.g. its crawl window) or score several strategies
/// against one truth: resolve the root-HTML hints of `served` (`None` =
/// the client's own load) with `input`, and score them against `truth`.
pub fn evaluate_with(
    input: &ResolverInput,
    truth: &ClientTruth,
    served: Option<&Page>,
    strategy: Strategy,
) -> Accuracy {
    let served = served.unwrap_or(&truth.load);
    let resolution = resolve(input, served, strategy);
    truth.score(resolution.hints_for(&served.url).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vroom_pages::{DeviceClass, SiteProfile};

    fn ctx(h: f64) -> LoadContext {
        LoadContext {
            hours: h,
            user_id: 42,
            device: DeviceClass::PhoneLarge,
            nonce: 7,
        }
    }

    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// The paper's §6.2 headline: Vroom's FN < 5% at the median;
    /// offline-only misses far more; online-only misses nothing.
    #[test]
    fn fig21b_shape_false_negatives() {
        let mut vroom = Vec::new();
        let mut offline = Vec::new();
        let mut online = Vec::new();
        for seed in 0..25u64 {
            let g = PageGenerator::new(SiteProfile::news(), 9000 + seed);
            let c = ctx(1500.0 + seed as f64);
            vroom.push(evaluate(&g, &c, Strategy::Vroom, 1).false_negative);
            offline.push(evaluate(&g, &c, Strategy::OfflineOnly, 1).false_negative);
            online.push(evaluate(&g, &c, Strategy::OnlineOnly, 1).false_negative);
        }
        let (mv, mo, mn) = (median(vroom), median(offline), median(online));
        assert!(mv < 0.05, "Vroom median FN must be < 5%, got {mv}");
        assert!(mo > mv * 2.0, "offline-only misses much more: {mo} vs {mv}");
        assert!(mo > 0.10, "offline-only median FN substantial, got {mo}");
        assert!(mn < 0.02, "online-only is near-perfect on FN, got {mn}");
    }

    /// Fig 21c: Vroom's FP matches offline-only (low); online-only inflates.
    #[test]
    fn fig21c_shape_false_positives() {
        let mut vroom = Vec::new();
        let mut offline = Vec::new();
        let mut online = Vec::new();
        for seed in 0..25u64 {
            let g = PageGenerator::new(SiteProfile::news(), 9100 + seed);
            let c = ctx(1500.0 + seed as f64);
            vroom.push(evaluate(&g, &c, Strategy::Vroom, 1).false_positive);
            offline.push(evaluate(&g, &c, Strategy::OfflineOnly, 1).false_positive);
            online.push(evaluate(&g, &c, Strategy::OnlineOnly, 1).false_positive);
        }
        let (mv, mo, mn) = (median(vroom), median(offline), median(online));
        assert!(mv < 0.10, "Vroom FP stays low, got {mv}");
        assert!(
            (mv - mo).abs() < 0.05,
            "Vroom FP ≈ offline-only FP: {mv} vs {mo}"
        );
        assert!(mn > mv + 0.02, "online-only inflates FP: {mn} vs {mv}");
    }

    /// Fig 21a: the predictable subset dominates counts and bytes.
    #[test]
    fn fig21a_shape_predictable_share() {
        let mut counts = Vec::new();
        let mut bytes = Vec::new();
        for seed in 0..25u64 {
            let g = PageGenerator::new(SiteProfile::news(), 9200 + seed);
            let a = evaluate(&g, &ctx(1500.0), Strategy::Vroom, 1);
            counts.push(a.predictable_count_frac);
            bytes.push(a.predictable_bytes_frac);
        }
        let (mc, mb) = (median(counts), median(bytes));
        assert!(mc > 0.80, "predictable count share > 80%, got {mc}");
        assert!(mb > 0.90, "predictable bytes share > 90%, got {mb}");
    }

    /// The PreviousLoad strawman returns plenty of garbage (Fig 17's cause).
    #[test]
    fn previous_load_has_high_fp() {
        let g = PageGenerator::new(SiteProfile::news(), 9999);
        let a = evaluate(&g, &ctx(1500.0), Strategy::PreviousLoad, 1);
        let v = evaluate(&g, &ctx(1500.0), Strategy::Vroom, 1);
        assert!(
            a.false_positive > v.false_positive + 0.05,
            "prev-load FP {} must exceed Vroom FP {}",
            a.false_positive,
            v.false_positive
        );
    }
}
