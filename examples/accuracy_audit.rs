//! Audit the accuracy of server-side dependency resolution on one site:
//! what each strategy (Vroom / offline-only / online-only / previous-load)
//! would return, scored against the predictable subset — with the actual
//! missed and extraneous URLs listed.
//!
//! ```sh
//! cargo run -p vroom-examples --example accuracy_audit
//! ```

#![forbid(unsafe_code)]

use std::collections::HashSet;
use vroom_html::Url;
use vroom_pages::{LoadContext, PageGenerator, SiteProfile};
use vroom_server::accuracy::evaluate;
use vroom_server::resolve::{resolve, ResolverInput, Strategy};

fn main() {
    let site = PageGenerator::new(SiteProfile::news(), 31337);
    let ctx = LoadContext::reference();
    let page = site.snapshot(&ctx);
    let b2b = site.snapshot(&ctx.back_to_back(ctx.nonce ^ 0xB2B));

    println!("=== {} — {} resources ===\n", page.url, page.len());

    let strategies = [
        ("Vroom (offline + online)", Strategy::Vroom),
        ("Offline only", Strategy::OfflineOnly),
        ("Online only", Strategy::OnlineOnly),
        ("Previous load, raw", Strategy::PreviousLoad),
    ];
    println!(
        "{:<28} {:>8} {:>8} | scored against the predictable subset",
        "strategy", "FN", "FP"
    );
    for (name, strategy) in strategies {
        let acc = evaluate(&site, &ctx, strategy, 77);
        println!(
            "{name:<28} {:>7.1}% {:>7.1}%",
            acc.false_negative * 100.0,
            acc.false_positive * 100.0
        );
    }

    // Detail for Vroom: which URLs were missed / extraneous and why.
    let input = ResolverInput::new(&site, ctx.hours, ctx.device, 77);
    let resolution = resolve(&input, &page, Strategy::Vroom);
    let root_hints = resolution.hints_for(&page.url).expect("root html resolved");
    let server_set: HashSet<&Url> = root_hints.iter().map(|h| h.url).collect();
    let b2b_urls: HashSet<&Url> = b2b.resources.iter().map(|r| &r.url).collect();

    println!("\n--- Vroom detail (root HTML scope) ---");
    let mut missed = 0;
    for r in page
        .resources
        .iter()
        .filter(|r| r.id != 0 && r.iframe_root.is_none())
    {
        let predictable = b2b_urls.contains(&r.url);
        let hinted = server_set.contains(&r.url);
        if predictable && !hinted {
            println!("  MISSED    {:<60} ({:?})", r.url.to_string(), r.stability);
            missed += 1;
        }
    }
    if missed == 0 {
        println!("  (no predictable resource was missed)");
    }
    let page_urls: HashSet<&Url> = page.resources.iter().map(|r| &r.url).collect();
    let mut extraneous = 0;
    for h in root_hints {
        let hurl = h.url;
        if !page_urls.contains(hurl) {
            println!(
                "  EXTRANEOUS {:<60} (stale crawl artifact)",
                hurl.to_string()
            );
            extraneous += 1;
        }
    }
    if extraneous == 0 {
        println!("  (no extraneous hint)");
    }
    println!(
        "\nhints on root response: {} | unpredictable (left to the client): {}",
        root_hints.len(),
        page.resources
            .iter()
            .filter(|r| r.id != 0 && r.iframe_root.is_none())
            .filter(|r| !b2b_urls.contains(&r.url))
            .count(),
    );
}
