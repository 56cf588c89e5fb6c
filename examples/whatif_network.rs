//! What-if analysis: how Vroom's benefit changes with the access network —
//! the §4.3 caveat ("alternate scheduling strategies will likely be
//! necessary where bandwidth or latency is the bottleneck") made
//! quantitative.
//!
//! ```sh
//! cargo run -p vroom-examples --example whatif_network
//! ```

#![forbid(unsafe_code)]

use vroom::{SiteLoad, System};
use vroom_browser::BrowserEngine;
use vroom_net::NetworkProfile;
use vroom_pages::{LoadContext, PageGenerator, SiteProfile};
use vroom_sim::SimDuration;

fn main() {
    let site = PageGenerator::new(SiteProfile::news(), 4242);
    // One page and one resolution serve every load below.
    let load = SiteLoad::new(&site, &LoadContext::reference(), 7);
    // PLT seconds under `system` on `profile`, on the context device's CPU
    // unless `cpu_factor` overrides it.
    let plt = |system, profile: &NetworkProfile, cpu_factor: Option<f64>| {
        let mut cfg = load.config(system);
        if let Some(factor) = cpu_factor {
            cfg.cpu_factor = factor;
        }
        BrowserEngine::load(load.page(), profile, &cfg)
            .plt
            .as_secs_f64()
    };

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
        let h2 = plt(System::Http2, &profile, None);
        let vr = plt(System::Vroom, &profile, None);
        println!(
            "{:<14} {:>10.1} {:>9.1} | {:>9.2} {:>9.2} {:>7.0}%",
            profile.name,
            profile.downlink_bps as f64 / 1e6,
            profile.rtt().as_millis_f64(),
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
        let h2 = plt(System::Http2, &profile, None);
        let vr = plt(System::Vroom, &profile, None);
        println!(
            "{mbps:>10} | {h2:>9.2} {vr:>9.2} {:>7.0}%",
            (1.0 - vr / h2) * 100.0
        );
    }

    // The sweep moves the cellular leg; loads run at the full round trip,
    // which adds LTE's server leg.
    println!("\n=== Cellular RTT sweep (LTE bandwidth and server leg) ===");
    println!(
        "{:>11} {:>8} | {:>9} {:>9} {:>8}",
        "cell RTT ms", "RTT ms", "HTTP/2 s", "Vroom s", "gain"
    );
    for cell_ms in [20u64, 50, 100, 200, 400, 800] {
        let profile = NetworkProfile::lte().with_cellular_rtt(SimDuration::from_millis(cell_ms));
        let h2 = plt(System::Http2, &profile, None);
        let vr = plt(System::Vroom, &profile, None);
        println!(
            "{cell_ms:>11} {:>8} | {h2:>9.2} {vr:>9.2} {:>7.0}%",
            profile.rtt().as_millis(),
            (1.0 - vr / h2) * 100.0
        );
    }

    println!("\n=== Device CPU sweep (LTE) ===");
    println!(
        "{:>10} | {:>9} {:>9} {:>8}",
        "cpu slow×", "HTTP/2 s", "Vroom s", "gain"
    );
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let lte = NetworkProfile::lte();
        let h2 = plt(System::Http2, &lte, Some(factor));
        let vr = plt(System::Vroom, &lte, Some(factor));
        println!(
            "{factor:>10.2} | {h2:>9.2} {vr:>9.2} {:>7.0}%",
            (1.0 - vr / h2) * 100.0
        );
    }
}
