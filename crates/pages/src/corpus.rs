//! The evaluation corpora: named site collections matching the paper's.
//!
//! * Top 50 News + Top 50 Sports landing pages (the primary corpus,
//!   median status-quo PLT ≈ 10.5 s),
//! * Alexa US Top 100 (Figure 1),
//! * 100 random sites from the top 400 (§6.1),
//! * 265 News/Sports pages of varied types for the accuracy study (§6.2).

use crate::generate::{PageGenerator, SiteProfile};

/// A named collection of page generators.
pub struct Corpus {
    /// Collection label.
    pub name: String,
    /// One generator per site/page.
    pub sites: Vec<PageGenerator>,
}

impl Corpus {
    /// Top 50 News + Top 50 Sports landing pages, or only the first `cap`
    /// of them (`None` builds all). Per-site seeds are independent, so a
    /// capped corpus is exactly the prefix of the full one — experiment
    /// configurations that only read `max_sites` sites skip constructing
    /// the other ~96. The other corpora cap the same way.
    pub fn news_and_sports_capped(seed: u64, cap: Option<usize>) -> Corpus {
        let n = cap.unwrap_or(100).min(100) as u64;
        let mut sites = Vec::new();
        for i in 0..n.min(50) {
            sites.push(PageGenerator::new(SiteProfile::news(), seed ^ (0x1000 + i)));
        }
        for i in 0..n.saturating_sub(50) {
            sites.push(PageGenerator::new(
                SiteProfile::sports(),
                seed ^ (0x2000 + i),
            ));
        }
        Corpus {
            name: "news+sports".into(),
            sites,
        }
    }

    /// The Alexa US Top 100.
    pub fn top100_capped(seed: u64, cap: Option<usize>) -> Corpus {
        let n = cap.unwrap_or(100).min(100) as u64;
        let sites = (0..n)
            .map(|i| PageGenerator::new(SiteProfile::top100(), seed ^ (0x3000 + i)))
            .collect();
        Corpus {
            name: "top100".into(),
            sites,
        }
    }

    /// 100 random sites from the Alexa top 400.
    pub fn top400_sample_capped(seed: u64, cap: Option<usize>) -> Corpus {
        let n = cap.unwrap_or(100).min(100) as u64;
        let sites = (0..n)
            .map(|i| PageGenerator::new(SiteProfile::top400(), seed ^ (0x4000 + i)))
            .collect();
        Corpus {
            name: "top400-sample".into(),
            sites,
        }
    }

    /// 265 pages drawn from News/Sports sites, a mix of page types
    /// (landing pages, articles, game results) — the §6.2 accuracy corpus.
    pub fn accuracy_pages_capped(seed: u64, cap: Option<usize>) -> Corpus {
        let n = cap.unwrap_or(265).min(265) as u64;
        let mut sites = Vec::new();
        for i in 0..n {
            let profile = if i % 2 == 0 {
                SiteProfile::news()
            } else {
                SiteProfile::sports()
            };
            sites.push(PageGenerator::new(profile, seed ^ (0x5000 + i)));
        }
        Corpus {
            name: "accuracy-265".into(),
            sites,
        }
    }

    /// A small corpus for fast tests.
    pub fn small(seed: u64, n: usize) -> Corpus {
        let sites = (0..n as u64)
            .map(|i| PageGenerator::new(SiteProfile::news(), seed ^ (0x6000 + i)))
            .collect();
        Corpus {
            name: format!("small-{n}"),
            sites,
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LoadContext;

    #[test]
    fn corpora_have_paper_sizes() {
        assert_eq!(Corpus::news_and_sports_capped(1, None).len(), 100);
        assert_eq!(Corpus::top100_capped(1, None).len(), 100);
        assert_eq!(Corpus::top400_sample_capped(1, None).len(), 100);
        assert_eq!(Corpus::accuracy_pages_capped(1, None).len(), 265);
    }

    #[test]
    fn sites_are_distinct_and_deterministic() {
        let a = Corpus::news_and_sports_capped(7, None);
        let b = Corpus::news_and_sports_capped(7, None);
        let ctx = LoadContext::reference();
        let pa = a.sites[3].snapshot(&ctx);
        let pb = b.sites[3].snapshot(&ctx);
        assert_eq!(pa.url, pb.url);
        assert_eq!(pa.len(), pb.len());
        assert_ne!(
            a.sites[0].snapshot(&ctx).url,
            a.sites[1].snapshot(&ctx).url,
            "sites have distinct domains"
        );
    }
}
