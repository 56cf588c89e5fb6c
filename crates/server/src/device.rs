//! Device-type equivalence classes (paper §4.1.2, Fig 9).
//!
//! Rather than crawling every page on every device model, a Vroom server
//! bins device types into equivalence classes by comparing the stable sets
//! their loads produce: devices whose stable sets have high
//! intersection-over-union share one class (and one crawl).

use crate::resolve::{Crawls, ResolverInput};
use std::collections::BTreeSet;
use vroom_html::Url;
use vroom_pages::{DeviceClass, PageGenerator};

/// Stable set of a page as crawled on a given device: URLs present in all
/// three recent hourly loads, by the resolver's own offline intersection.
pub fn stable_set(
    generator: &PageGenerator,
    hours: f64,
    device: DeviceClass,
    server_seed: u64,
) -> BTreeSet<Url> {
    let input = ResolverInput::new(generator, hours, device, server_seed);
    Crawls::new(input.offline_loads())
        .intersection(|_| true)
        .into_iter()
        .map(|(_, url, _, _)| url.clone())
        .collect()
}

/// Intersection-over-union of two URL sets.
pub fn iou(a: &BTreeSet<Url>, b: &BTreeSet<Url>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

/// Group device classes whose stable sets agree above `threshold` IoU.
/// Greedy agglomeration against class representatives — cheap and adequate
/// for the handful of device buckets in practice.
pub fn equivalence_classes(
    generator: &PageGenerator,
    hours: f64,
    server_seed: u64,
    threshold: f64,
) -> Vec<Vec<DeviceClass>> {
    let mut classes: Vec<(BTreeSet<Url>, Vec<DeviceClass>)> = Vec::new();
    for device in DeviceClass::all() {
        let set = stable_set(generator, hours, device, server_seed);
        match classes
            .iter_mut()
            .find(|(rep, _)| iou(rep, &set) >= threshold)
        {
            Some((_, members)) => members.push(device),
            None => classes.push((set, vec![device])),
        }
    }
    classes.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vroom_pages::SiteProfile;

    #[test]
    fn phones_cluster_together_tablets_apart() {
        // Aggregate over several sites: IoU(phone, phone) must dominate
        // IoU(phone, tablet) — the paper's Fig 9 shape.
        let mut phone_phone = Vec::new();
        let mut phone_tablet = Vec::new();
        for seed in 0..12u64 {
            let g = PageGenerator::new(SiteProfile::news(), 4000 + seed);
            let nexus6 = stable_set(&g, 1500.0, DeviceClass::PhoneLarge, 3);
            let oneplus = stable_set(&g, 1500.0, DeviceClass::PhoneSmall, 3);
            let nexus10 = stable_set(&g, 1500.0, DeviceClass::Tablet, 3);
            phone_phone.push(iou(&nexus6, &oneplus));
            phone_tablet.push(iou(&nexus6, &nexus10));
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (pp, pt) = (avg(&phone_phone), avg(&phone_tablet));
        assert!(
            pp > pt,
            "phone-phone IoU {pp} must exceed phone-tablet {pt}"
        );
        assert!(pp > 0.85, "phones nearly identical, got {pp}");
        assert!(pt < 0.97, "tablets diverge, got {pt}");
    }

    #[test]
    fn equivalence_classes_reflect_buckets() {
        // With a threshold between the two IoU regimes, phones share a class.
        let g = PageGenerator::new(SiteProfile::news(), 4242);
        let classes = equivalence_classes(&g, 1500.0, 3, 0.9);
        let phone_class = classes
            .iter()
            .find(|c| c.contains(&DeviceClass::PhoneLarge))
            .unwrap();
        assert!(
            phone_class.contains(&DeviceClass::PhoneSmall),
            "phones must share a class: {classes:?}"
        );
    }

    #[test]
    fn crawler_identity_is_fixed() {
        // The crawler's user id is stable — offline resolution depends on it.
        assert_eq!(crate::resolve::CRAWLER_USER, 0xC4A3_11E4);
    }

    #[test]
    fn iou_edge_cases() {
        let empty: BTreeSet<Url> = BTreeSet::new();
        assert_eq!(iou(&empty, &empty), 1.0);
        let mut a = BTreeSet::new();
        a.insert(Url::https("x.com", "/a"));
        assert_eq!(iou(&a, &empty), 0.0);
        assert_eq!(iou(&a, &a.clone()), 1.0);
    }
}
