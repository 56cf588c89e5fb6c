//! `vroom-cli` — explore the reproduction from the command line.
//!
//! ```text
//! vroom-cli load    [--category news] [--seed 42] [--system vroom] [--network lte]
//! vroom-cli compare [--category news] [--seed 42] [--network lte]
//! vroom-cli page    [--category news] [--seed 42]
//! vroom-cli hints   [--category news] [--seed 42]
//! ```
//!
//! `vroom-cli help` (the default command) prints the usage line. A
//! malformed or unknown flag, an unknown name, or an unknown command prints
//! `error: …` and the usage line to stderr and exits 2.

#![forbid(unsafe_code)]

use vroom::{lower_bound_plt, run_load, System};
use vroom_net::NetworkProfile;
use vroom_pages::{LoadContext, PageGenerator, SiteProfile};
use vroom_server::resolve::{resolve, ResolverInput, Strategy};

const USAGE: &str = "usage: vroom-cli <load|compare|page|hints> \
                     [--category news|sports|top100|top400] [--seed N] \
                     [--system vroom|http2|...] [--network lte|3g|...]";

struct Args {
    command: String,
    category: String,
    seed: u64,
    system: String,
    network: String,
}

/// Parse the process arguments; on malformed input, report it with
/// [`usage_error`].
fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        command: argv.first().cloned().unwrap_or_else(|| "help".into()),
        category: "news".into(),
        seed: 42,
        system: "vroom".into(),
        network: "lte".into(),
    };
    for pair in argv.get(1..).unwrap_or_default().chunks(2) {
        let (flag, value) = (pair[0].as_str(), pair.get(1));
        let name = || {
            value
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{flag} takes a name")))
        };
        match flag {
            "--category" => args.category = name(),
            "--seed" => {
                args.seed = value
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed takes a number"))
            }
            "--system" => args.system = name(),
            "--network" => args.network = name(),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

/// Print `message` and the usage line to stderr, then exit 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn profile_of(name: &str) -> SiteProfile {
    match name {
        "news" => SiteProfile::news(),
        "sports" => SiteProfile::sports(),
        "top100" => SiteProfile::top100(),
        "top400" => SiteProfile::top400(),
        other => usage_error(&format!(
            "unknown category {other} (news|sports|top100|top400)"
        )),
    }
}

fn network_of(name: &str) -> NetworkProfile {
    match name {
        "lte" => NetworkProfile::lte(),
        "lte-congested" => NetworkProfile::lte_congested(),
        "3g" => NetworkProfile::three_g(),
        "2g" => NetworkProfile::two_g(),
        "wifi" => NetworkProfile::wifi(),
        "usb" => NetworkProfile::usb_tether(),
        other => usage_error(&format!(
            "unknown network {other} (lte|lte-congested|3g|2g|wifi|usb)"
        )),
    }
}

fn system_of(name: &str) -> System {
    match name {
        "http1" => System::Http1,
        "http2" => System::Http2,
        "polaris" => System::PolarisLike,
        "vroom" => System::Vroom,
        "vroom-first-party" => System::VroomFirstPartyOnly,
        "vroom-stale" => System::VroomStaleDeps,
        "push-hp" => System::PushHighPriorityNoHints,
        "push-all" => System::PushAllNoHints,
        "push-asap" => System::PushAllFetchAsap,
        "hybrid" => System::VroomPolarisHybrid,
        other => usage_error(&format!("unknown system {other}")),
    }
}

fn main() {
    let args = parse_args();
    let site = PageGenerator::new(profile_of(&args.category), args.seed);
    let ctx = LoadContext::reference();
    let net = network_of(&args.network);

    match args.command.as_str() {
        "load" => {
            let system = system_of(&args.system);
            let r = run_load(&site, &ctx, &net, system, 7);
            println!("site:            {}", site.url);
            println!("system:          {}", system.label());
            println!("network:         {}", net.name);
            println!("page load time:  {:.3}s", r.plt.as_secs_f64());
            println!("above-the-fold:  {:.3}s", r.aft.as_secs_f64());
            println!("speed index:     {:.0}ms", r.speed_index);
            println!("cpu utilization: {:.0}%", r.cpu_utilization() * 100.0);
            println!("network wait:    {:.0}%", r.network_wait_frac() * 100.0);
            println!(
                "bytes fetched:   {} (+{} wasted)",
                r.useful_bytes, r.wasted_bytes
            );
        }
        "compare" => {
            println!(
                "{:<30} {:>9} {:>9} {:>11}",
                "system", "PLT (s)", "AFT (s)", "SpeedIdx"
            );
            for system in [
                System::Http1,
                System::Http2,
                System::PolarisLike,
                System::PushAllNoHints,
                System::Vroom,
                System::VroomPolarisHybrid,
            ] {
                let r = run_load(&site, &ctx, &net, system, 7);
                println!(
                    "{:<30} {:>9.2} {:>9.2} {:>11.0}",
                    system.label(),
                    r.plt.as_secs_f64(),
                    r.aft.as_secs_f64(),
                    r.speed_index
                );
            }
            let bound = lower_bound_plt(&site, &ctx, &net, 7);
            println!("{:<30} {:>9.2}", "Lower Bound", bound.as_secs_f64());
        }
        "page" => {
            let page = site.snapshot(&ctx);
            println!(
                "{} — {} resources, {:.0} KB, {} domains, {:.1}s reference CPU",
                page.url,
                page.len(),
                page.total_bytes() as f64 / 1024.0,
                page.domains().len(),
                page.total_cpu().as_secs_f64()
            );
            for r in &page.resources {
                println!(
                    "  [{:>3}] {:<6} tier{} {:>8}B {:>6}ms {:<60} parent={:?}",
                    r.id,
                    format!("{:?}", r.kind),
                    r.hint_tier(),
                    r.size,
                    r.cpu_cost.as_millis(),
                    r.url.to_string(),
                    r.parent
                );
            }
        }
        "hints" => {
            let page = site.snapshot(&ctx);
            let input = ResolverInput::new(&site, ctx.hours, ctx.device, 7);
            let mut urls = vroom_intern::UrlTable::new();
            let deps = resolve(&input, &page, Strategy::Vroom, &mut urls);
            for (&html, hints) in &deps.hints {
                println!("{} returns {} hints:", urls.get(html), hints.len());
                for h in hints {
                    println!("  tier{} {:>8}B {}", h.tier, h.size_hint, urls.get(h.url));
                }
            }
        }
        "help" => println!("{USAGE}"),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}
