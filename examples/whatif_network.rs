//! What-if analysis: how Vroom's benefit changes with the access network —
//! the §4.3 caveat ("alternate scheduling strategies will likely be
//! necessary where bandwidth or latency is the bottleneck") made
//! quantitative.
//!
//! ```sh
//! cargo run -p vroom-examples --example whatif_network
//! ```

#![forbid(unsafe_code)]

use vroom::{run_load, System};
use vroom_net::NetworkProfile;
use vroom_pages::{LoadContext, PageGenerator, SiteProfile};
use vroom_sim::SimDuration;

fn main() {
    let site = PageGenerator::new(SiteProfile::news(), 4242);
    let ctx = LoadContext::reference();

    println!("=== Named profiles ===");
    println!(
        "{:<14} {:>10} {:>9} | {:>9} {:>9} {:>8}",
        "profile", "down Mbps", "RTT ms", "HTTP/2 s", "Vroom s", "gain"
    );
    for profile in [
        NetworkProfile::usb_tether(),
        NetworkProfile::wifi(),
        NetworkProfile::lte(),
        NetworkProfile::lte_congested(),
        NetworkProfile::three_g(),
        NetworkProfile::two_g(),
    ] {
        let h2 = run_load(&site, &ctx, &profile, System::Http2, 7)
            .plt
            .as_secs_f64();
        let vr = run_load(&site, &ctx, &profile, System::Vroom, 7)
            .plt
            .as_secs_f64();
        println!(
            "{:<14} {:>10.1} {:>9} | {:>9.2} {:>9.2} {:>7.0}%",
            profile.name,
            profile.downlink_bps as f64 / 1e6,
            profile.latency.cellular_rtt.as_millis(),
            h2,
            vr,
            (1.0 - vr / h2) * 100.0
        );
    }

    println!("\n=== Bandwidth sweep (LTE latency) ===");
    println!(
        "{:>10} | {:>9} {:>9} {:>8}",
        "down Mbps", "HTTP/2 s", "Vroom s", "gain"
    );
    for mbps in [1, 2, 5, 10, 20, 50] {
        let profile = NetworkProfile::lte().with_downlink(mbps * 1_000_000);
        let h2 = run_load(&site, &ctx, &profile, System::Http2, 7)
            .plt
            .as_secs_f64();
        let vr = run_load(&site, &ctx, &profile, System::Vroom, 7)
            .plt
            .as_secs_f64();
        println!(
            "{mbps:>10} | {h2:>9.2} {vr:>9.2} {:>7.0}%",
            (1.0 - vr / h2) * 100.0
        );
    }

    println!("\n=== RTT sweep (LTE bandwidth) ===");
    println!(
        "{:>10} | {:>9} {:>9} {:>8}",
        "RTT ms", "HTTP/2 s", "Vroom s", "gain"
    );
    for rtt_ms in [20u64, 50, 100, 200, 400, 800] {
        let profile = NetworkProfile::lte().with_cellular_rtt(SimDuration::from_millis(rtt_ms));
        let h2 = run_load(&site, &ctx, &profile, System::Http2, 7)
            .plt
            .as_secs_f64();
        let vr = run_load(&site, &ctx, &profile, System::Vroom, 7)
            .plt
            .as_secs_f64();
        println!(
            "{rtt_ms:>10} | {h2:>9.2} {vr:>9.2} {:>7.0}%",
            (1.0 - vr / h2) * 100.0
        );
    }

    println!("\n=== Device CPU sweep (LTE) ===");
    println!(
        "{:>10} | {:>9} {:>9} {:>8}",
        "cpu slow×", "HTTP/2 s", "Vroom s", "gain"
    );
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        // build_config sets the context device's CPU factor; override it
        // with the swept one.
        let page = site.snapshot(&ctx);
        let mut base = vroom::build_config(System::Http2, &site, &page, &ctx, 7);
        base.cpu_factor = factor;
        let mut vroomc = vroom::build_config(System::Vroom, &site, &page, &ctx, 7);
        vroomc.cpu_factor = factor;
        let lte = NetworkProfile::lte();
        let h2 = vroom_browser::BrowserEngine::load(&page, &lte, &base)
            .plt
            .as_secs_f64();
        let vr = vroom_browser::BrowserEngine::load(&page, &lte, &vroomc)
            .plt
            .as_secs_f64();
        println!(
            "{factor:>10.2} | {h2:>9.2} {vr:>9.2} {:>7.0}%",
            (1.0 - vr / h2) * 100.0
        );
    }
}
