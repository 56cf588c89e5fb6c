//! Ablations beyond the paper's exhibits (DESIGN.md §5): sweeps over the
//! design space the paper discusses qualitatively — bandwidth and latency
//! regimes (§4.3's "alternate scheduling strategies will likely be
//! necessary"), device CPU speed, the offline crawl window, and the
//! Vroom+Polaris hybrid (§6.1's future-work note).

use crate::experiment::{plt_cdfs, ExperimentConfig, Plan};
use crate::load::SiteLoad;
use crate::policy::System;
use crate::stats::Cdf;
use vroom_browser::BrowserEngine;
use vroom_net::NetworkProfile;
use vroom_pages::{Corpus, LoadContext};
use vroom_server::accuracy::{evaluate_with, ClientTruth};
use vroom_server::resolve::{ResolverInput, Strategy};
use vroom_sim::SimDuration;

/// Median PLT per system over a (capped) News+Sports corpus on a profile.
fn median_plts<const N: usize>(
    cfg: &ExperimentConfig,
    corpus: &Corpus,
    profile: &NetworkProfile,
    systems: [System; N],
) -> [f64; N] {
    let cfg = ExperimentConfig {
        profile: profile.clone(),
        ..cfg.clone()
    };
    plt_cdfs(&cfg, corpus, systems).map(|plts| plts.median())
}

/// Sweep the downlink bandwidth: where does Vroom's edge over HTTP/2 peak?
pub fn ablation_bandwidth(cfg: &ExperimentConfig) -> (Vec<(u64, f64, f64)>, String) {
    bandwidth_of(&Plan::new(cfg, &["ablation_bandwidth"]))
}

/// [`ablation_bandwidth`] over `plan`'s News+Sports corpus.
pub(crate) fn bandwidth_of(plan: &Plan) -> (Vec<(u64, f64, f64)>, String) {
    let (cfg, ns) = (plan.cfg, plan.news_sports());
    let mut rows = Vec::new();
    let mut table =
        String::from("# Ablation: Vroom vs HTTP/2 across downlink bandwidths (News+Sports)\n");
    table.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>8}\n",
        "Mbps", "HTTP/2 s", "Vroom s", "gain"
    ));
    for mbps in [1u64, 2, 5, 10, 20, 50] {
        let profile = NetworkProfile::lte().with_downlink(mbps * 1_000_000);
        let [h2, vr] = median_plts(cfg, ns, &profile, [System::Http2, System::Vroom]);
        table.push_str(&format!(
            "{mbps:>10} {h2:>10.2} {vr:>10.2} {:>7.0}%\n",
            (1.0 - vr / h2) * 100.0
        ));
        rows.push((mbps, h2, vr));
    }
    (rows, table)
}

/// Sweep the cellular RTT (2G/3G-like regimes).
pub fn ablation_rtt(cfg: &ExperimentConfig) -> (Vec<(u64, f64, f64)>, String) {
    rtt_of(&Plan::new(cfg, &["ablation_rtt"]))
}

/// [`ablation_rtt`] over `plan`'s News+Sports corpus.
pub(crate) fn rtt_of(plan: &Plan) -> (Vec<(u64, f64, f64)>, String) {
    let (cfg, ns) = (plan.cfg, plan.news_sports());
    let mut rows = Vec::new();
    let mut table =
        String::from("# Ablation: Vroom vs HTTP/2 across cellular RTTs (News+Sports)\n");
    table.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>8}\n",
        "RTT ms", "HTTP/2 s", "Vroom s", "gain"
    ));
    for rtt in [20u64, 50, 100, 200, 400] {
        let profile = NetworkProfile::lte().with_cellular_rtt(SimDuration::from_millis(rtt));
        let [h2, vr] = median_plts(cfg, ns, &profile, [System::Http2, System::Vroom]);
        table.push_str(&format!(
            "{rtt:>10} {h2:>10.2} {vr:>10.2} {:>7.0}%\n",
            (1.0 - vr / h2) * 100.0
        ));
        rows.push((rtt, h2, vr));
    }
    (rows, table)
}

/// Sweep the device CPU speed: Vroom's edge shrinks as the CPU stops being
/// the bottleneck.
pub fn ablation_cpu(cfg: &ExperimentConfig) -> (Vec<(f64, f64, f64)>, String) {
    cpu_of(&Plan::new(cfg, &["ablation_cpu"]))
}

/// [`ablation_cpu`] over `plan`'s News+Sports corpus.
pub(crate) fn cpu_of(plan: &Plan) -> (Vec<(f64, f64, f64)>, String) {
    let cfg = plan.cfg;
    let mut rows = Vec::new();
    let mut table = String::from(
        "# Ablation: Vroom vs HTTP/2 across device CPU speeds (1.0 = Nexus-6-class)\n",
    );
    table.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>8}\n",
        "slowdown", "HTTP/2 s", "Vroom s", "gain"
    ));
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    // One page and one resolution per site serve every factor.
    let per_site = cfg.for_each_site(plan.news_sports(), |i, site| {
        let ctx = LoadContext {
            hours: cfg.ctx.hours + i as f64 * 0.01,
            ..cfg.ctx
        };
        let load = SiteLoad::new(site, &ctx, cfg.server_seed);
        factors.map(|factor| {
            let plt = |system| {
                let mut lc = load.config(system);
                lc.cpu_factor = factor;
                BrowserEngine::load(load.page(), &cfg.profile, &lc)
                    .plt
                    .as_secs_f64()
            };
            (plt(System::Http2), plt(System::Vroom))
        })
    });
    for (k, factor) in factors.into_iter().enumerate() {
        let (h2v, vrv): (Vec<f64>, Vec<f64>) = per_site.iter().map(|plts| plts[k]).unzip();
        let h2 = Cdf::new(h2v).median();
        let vr = Cdf::new(vrv).median();
        table.push_str(&format!(
            "{factor:>10.2} {h2:>10.2} {vr:>10.2} {:>7.0}%\n",
            (1.0 - vr / h2) * 100.0
        ));
        rows.push((factor, h2, vr));
    }
    (rows, table)
}

/// Sites the history-window ablation scores, from the start of the
/// accuracy corpus: 40, or `max_sites` when a cap is set.
pub(crate) fn history_sites(cfg: &ExperimentConfig) -> usize {
    cfg.max_sites.unwrap_or(40)
}

/// Sweep the offline crawl window: deeper history trades false negatives
/// for staleness.
pub fn ablation_history_window(cfg: &ExperimentConfig) -> (Vec<(usize, f64, f64)>, String) {
    history_window_of(&Plan::new(cfg, &["ablation_history"]))
}

/// [`ablation_history_window`] over `plan`'s accuracy corpus.
pub(crate) fn history_window_of(plan: &Plan) -> (Vec<(usize, f64, f64)>, String) {
    let (cfg, corpus) = (plan.cfg, plan.accuracy());
    let n = history_sites(cfg).min(corpus.len());
    let windows: [&[u64]; 4] = [
        &[1],
        &[1, 2, 3],
        &[1, 2, 3, 4, 5, 6],
        &[1, 4, 8, 12, 16, 20, 24],
    ];
    let mut rows = Vec::new();
    let mut table =
        String::from("# Ablation: offline-resolution accuracy vs crawl-history window\n");
    table.push_str(&format!(
        "{:>24} {:>10} {:>10}\n",
        "window (hours ago)", "median FN", "median FP"
    ));
    let sites = &corpus.sites[..n];
    let client_ctx = |i: usize| LoadContext {
        hours: cfg.ctx.hours + i as f64 * 0.01,
        user_id: 100 + (i as u64 % 4) * 101,
        ..cfg.ctx
    };
    // The client side of each site's score is the same for every window.
    let truths: Vec<ClientTruth> = sites
        .iter()
        .enumerate()
        .map(|(i, site)| ClientTruth::new(site, &client_ctx(i)))
        .collect();
    for window in windows {
        let mut fns = Vec::new();
        let mut fps = Vec::new();
        for (i, (site, truth)) in sites.iter().zip(&truths).enumerate() {
            let ctx = client_ctx(i);
            let input = ResolverInput::with_crawl_offsets(
                site,
                ctx.hours,
                ctx.device,
                cfg.server_seed,
                window.to_vec(),
            );
            let acc = evaluate_with(&input, truth, None, Strategy::Vroom);
            fns.push(acc.false_negative);
            fps.push(acc.false_positive);
        }
        let (mfn, mfp) = (Cdf::new(fns).median(), Cdf::new(fps).median());
        table.push_str(&format!(
            "{:>24} {mfn:>10.3} {mfp:>10.3}\n",
            format!("{window:?}")
        ));
        rows.push((window.len(), mfn, mfp));
    }
    (rows, table)
}

/// The §6.1 future-work hybrid: Vroom + Polaris-style fine-grained client
/// dependency tracking.
pub fn ablation_hybrid(cfg: &ExperimentConfig) -> (f64, f64, f64, String) {
    hybrid_of(&Plan::new(cfg, &["ablation_hybrid"]))
}

/// [`ablation_hybrid`] over `plan`'s News+Sports corpus.
pub(crate) fn hybrid_of(plan: &Plan) -> (f64, f64, f64, String) {
    let cfg = plan.cfg;
    let systems = [
        System::Vroom,
        System::PolarisLike,
        System::VroomPolarisHybrid,
    ];
    let [vroom, polaris, hybrid] = median_plts(cfg, plan.news_sports(), &cfg.profile, systems);
    let table = format!(
        "# Future work (§6.1): combining Vroom and Polaris\n\
         Polaris:          {polaris:.2}s median PLT\n\
         Vroom:            {vroom:.2}s\n\
         Vroom + Polaris:  {hybrid:.2}s\n"
    );
    (vroom, polaris, hybrid, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick(5)
    }

    #[test]
    fn bandwidth_sweep_converges_at_high_bandwidth() {
        let (rows, table) = ablation_bandwidth(&quick());
        // At very low bandwidth the network dominates and Vroom's relative
        // edge is smaller than at LTE-class bandwidth.
        let gain = |r: &(u64, f64, f64)| 1.0 - r.2 / r.1;
        let low = gain(&rows[0]);
        let best = rows.iter().map(gain).fold(f64::MIN, f64::max);
        assert!(best > low, "gain peaks above the 1 Mbps regime: {table}");
        // PLT decreases with bandwidth for both systems.
        assert!(rows.last().unwrap().1 < rows[0].1, "{table}");
    }

    #[test]
    fn history_window_tradeoff() {
        let (rows, table) = ablation_history_window(&quick());
        // A single crawl (window=1) has the lowest FN among offline choices
        // but higher FP than deeper windows' intersection... at minimum the
        // sweep must produce sane fractions.
        for (_, f_n, f_p) in &rows {
            assert!((0.0..=1.0).contains(f_n), "{table}");
            assert!((0.0..=2.0).contains(f_p), "{table}");
        }
        // Deeper windows must not reduce accuracy catastrophically.
        assert!(rows.last().unwrap().1 < 0.4, "{table}");
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_polaris() {
        let (_vroom, polaris, hybrid, table) = ablation_hybrid(&quick());
        assert!(
            hybrid <= polaris + 0.2,
            "the hybrid should not regress below Polaris: {table}"
        );
    }
}
