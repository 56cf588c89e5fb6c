//! Deterministic chaos suite: seeded fault plans swept across every
//! system, proving the fault-injection layer's two contracts:
//!
//! 1. **Termination** — every load completes under every plan. Retry
//!    budgets are finite, replacement connections never re-drop, and
//!    onload degrades around resources whose budget is exhausted, so no
//!    combination of outages, drops, truncations, and corrupted hints can
//!    hang a load.
//! 2. **Graceful degradation** — Vroom's advantage survives faults: under
//!    identical plans, faulted Vroom's median PLT stays at or below the
//!    faulted HTTP/2 baseline's.

//!
//! The fleet section extends both contracts to the serving path: a fleet
//! under an active plan terminates, faults stay confined to the clients
//! they were dealt to, and an inactive plan perturbs nothing.

#![forbid(unsafe_code)]

use vroom::{run_load, run_load_faulted, System};
use vroom_fleet::{run_fleet_observed, ClientOutcome, FleetConfig, FleetFaults, FleetReport};
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, LoadContext};
use vroom_sim::SimDuration;

const SYSTEMS: [System; 5] = [
    System::Http1,
    System::Http2,
    System::PushAllStatic,
    System::PolarisLike,
    System::Vroom,
];

/// Every load must finish well inside this bound; a hang would otherwise
/// spin the event loop forever, not merely run slow.
const TERMINATION_BOUND: SimDuration = SimDuration::from_secs(15 * 60);

fn plans(severity: f64, n: u64) -> Vec<FaultPlan> {
    (0..n)
        .map(|i| FaultPlan::from_seed(0xC4A05 ^ (i * 7919), severity))
        .collect()
}

#[test]
fn every_system_terminates_under_every_fault_plan() {
    let corpus = Corpus::small(2026, 4);
    let ctx = LoadContext::reference();
    // 2G stretches responses past the per-request timeout, so aborts land
    // in an ordered connection's slow-start tail; LTE rarely does.
    let profiles = [NetworkProfile::lte(), NetworkProfile::two_g()];
    let mut faulted_loads = 0usize;
    for profile in &profiles {
        for severity in [0.3, 0.7, 1.0] {
            for plan in plans(severity, 4) {
                assert!(plan.is_active(), "from_seed must produce an active plan");
                for site in &corpus.sites {
                    for system in SYSTEMS {
                        let r = run_load_faulted(site, &ctx, profile, system, 11, &plan);
                        assert!(
                            r.plt < TERMINATION_BOUND,
                            "{} did not terminate promptly on {} under plan seed {}: plt {}",
                            system.label(),
                            profile.name,
                            plan.seed,
                            r.plt,
                        );
                        faulted_loads += 1;
                    }
                }
            }
        }
    }
    assert_eq!(faulted_loads, profiles.len() * 3 * 4 * 4 * SYSTEMS.len());
}

#[test]
fn faults_surface_as_protocol_events() {
    let corpus = Corpus::small(7, 4);
    let ctx = LoadContext::reference();
    let lte = NetworkProfile::lte();
    let (mut rsts, mut goaways, mut retries, mut failed) = (0, 0, 0, 0);
    for plan in plans(1.0, 4) {
        for site in &corpus.sites {
            let r = run_load_faulted(site, &ctx, &lte, System::Http2, 11, &plan);
            rsts += r.rst_streams;
            goaways += r.goaways;
            retries += r.retries;
            failed += r.failed_resources;
        }
    }
    // At full severity across 16 loads the sweep must exercise every fault
    // path: truncated bodies (RST_STREAM), dropped connections (GOAWAY),
    // and the retry machinery recovering from both.
    assert!(rsts > 0, "no RST_STREAM-equivalent events injected");
    assert!(goaways > 0, "no GOAWAY-equivalent events injected");
    assert!(retries > 0, "no retries performed");
    // Degradation is allowed but must be the exception, not the rule.
    assert!(
        retries >= failed,
        "more exhausted budgets ({failed}) than retries ({retries})"
    );
}

#[test]
fn faulted_vroom_median_at_most_faulted_http2() {
    let corpus = Corpus::small(2024, 6);
    let ctx = LoadContext::reference();
    let lte = NetworkProfile::lte();
    let mut ratios: Vec<f64> = Vec::new();
    for severity in [0.4, 0.8] {
        for plan in plans(severity, 3) {
            for site in &corpus.sites {
                let vroom = run_load_faulted(site, &ctx, &lte, System::Vroom, 11, &plan);
                let h2 = run_load_faulted(site, &ctx, &lte, System::Http2, 11, &plan);
                ratios.push(vroom.plt.as_secs_f64() / h2.plt.as_secs_f64());
            }
        }
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median <= 1.0,
        "faulted Vroom should still beat faulted HTTP/2 at the median, got {median:.3}"
    );
}

#[test]
fn inactive_plan_is_byte_identical_to_fault_free_load() {
    let corpus = Corpus::small(99, 2);
    let ctx = LoadContext::reference();
    let lte = NetworkProfile::lte();
    for site in &corpus.sites {
        for system in SYSTEMS {
            let plain = run_load(site, &ctx, &lte, system, 5);
            let faulted = run_load_faulted(site, &ctx, &lte, system, 5, &FaultPlan::none());
            assert_eq!(plain, faulted, "inactive plan perturbed {}", system.label());
            assert_eq!(plain.rst_streams, 0);
            assert_eq!(plain.goaways, 0);
            assert_eq!(plain.retries, 0);
            assert_eq!(plain.timeouts, 0);
            assert_eq!(plain.failed_resources, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet under chaos
// ---------------------------------------------------------------------------

fn fleet_cfg(faults: Option<FleetFaults>) -> FleetConfig {
    FleetConfig {
        faults,
        ..FleetConfig::quick(48, 3)
    }
}

/// Run the fleet and collect every client outcome its sink is handed, in
/// arrival order.
fn observe(cfg: &FleetConfig) -> (FleetReport, Vec<ClientOutcome>) {
    let mut outcomes = Vec::new();
    let run = run_fleet_observed(cfg, None, &mut |o| outcomes.push(o)).0;
    (run.report, outcomes)
}

/// A fleet under an active plan terminates, and degradation is strictly
/// per-client: clients the plan was not dealt to are byte-identical to
/// their outcomes in a fault-free run — faults never bleed through the
/// shared store, table, or origin pool.
#[test]
fn faulted_fleet_terminates_and_faults_stay_per_client() {
    let faults = FleetFaults {
        seed: 0xC4A05,
        severity: 0.9,
        one_in: 2,
    };
    let (faulted, faulted_outcomes) = observe(&fleet_cfg(Some(faults)));
    let (clean, clean_outcomes) = observe(&fleet_cfg(None));

    assert_eq!(faulted.faulted_clients, 24, "every even client");
    assert_eq!(faulted_outcomes.len(), clean_outcomes.len());
    let mut hit = 0usize;
    for (f, c) in faulted_outcomes.iter().zip(&clean_outcomes) {
        assert!(
            f.result.plt < TERMINATION_BOUND,
            "client {} did not terminate promptly: plt {}",
            f.id,
            f.result.plt
        );
        if f.id % 2 == 0 {
            assert!(f.faulted, "client {} was dealt the plan", f.id);
            hit += usize::from(f != c);
        } else {
            assert!(!f.faulted);
            assert_eq!(f, c, "fault bled into untouched client {}", f.id);
        }
    }
    assert!(hit > 0, "an active 0.9-severity plan must perturb someone");
    // The shared server state is fault-independent: resolver passes and
    // store contents are driven by arrivals, not by client-side faults.
    assert_eq!(faulted.resolver_passes, clean.resolver_passes);
    assert_eq!(faulted.store_entries, clean.store_entries);
    assert_eq!(faulted.shard_stats, clean.shard_stats);
}

/// An inactive fleet fault configuration (severity 0) is byte-identical to
/// no fault configuration at all — report and every outcome.
#[test]
fn inactive_fleet_fault_plan_is_byte_identical() {
    let (inactive, inactive_outcomes) = observe(&fleet_cfg(Some(FleetFaults {
        seed: 0xC4A05,
        severity: 0.0,
        one_in: 1,
    })));
    let (clean, clean_outcomes) = observe(&fleet_cfg(None));
    assert_eq!(inactive, clean);
    assert_eq!(inactive_outcomes, clean_outcomes);
    assert_eq!(inactive.faulted_clients, 0);
    assert_eq!(inactive.render(), clean.render());
}

#[test]
fn degraded_loads_report_failures_instead_of_hanging() {
    // A brutal plan: long total outage plus aggressive truncation. Loads
    // must still finish, with failures surfaced in the result rather than
    // silently dropped or infinitely retried.
    let plan = FaultPlan::from_seed(0xDEAD, 1.0);
    let corpus = Corpus::small(5, 3);
    let ctx = LoadContext::reference();
    let lte = NetworkProfile::lte();
    for site in &corpus.sites {
        let r = run_load_faulted(site, &ctx, &lte, System::Vroom, 11, &plan);
        assert!(r.plt < TERMINATION_BOUND);
        for t in &r.resources {
            if t.failed {
                // A failed resource never reports a fetch completion
                // later than onload (it has none).
                assert!(t.requested.is_some(), "failed implies attempted");
            }
        }
    }
}

/// Pins three faulted loads whose onload rests on the orphan rules: a
/// failed resource settles together with each of its discovered
/// descendants, and a resource first discovered below a failed ancestor
/// settles at discovery. Without the first rule the first two loads stall;
/// without the second the third fires onload at a different time.
#[test]
fn onload_settles_around_failed_and_orphaned_resources() {
    let ctx = LoadContext::reference();
    let lte = NetworkProfile::lte();
    let a = Corpus::small(2026, 6);
    let b = Corpus::small(7, 12);
    let cases = [
        (
            &a.sites[0],
            FaultPlan::from_seed(0xc31b9, 0.7),
            System::PushAllFetchAsap,
            8_924_033_253,
            1,
        ),
        (
            &a.sites[0],
            FaultPlan::from_seed(0xc31b9, 1.0),
            System::VroomStaleDeps,
            11_162_390_285,
            1,
        ),
        (
            &b.sites[11],
            FaultPlan::from_seed(348, 1.0),
            System::VroomPolarisHybrid,
            5_822_343_593,
            3,
        ),
    ];
    for (i, (site, plan, system, plt_ns, failed)) in cases.into_iter().enumerate() {
        let r = run_load_faulted(site, &ctx, &lte, system, 11, &plan);
        assert_eq!(
            (r.plt.as_nanos(), r.failed_resources),
            (plt_ns, failed),
            "case {i}: {}",
            system.label(),
        );
    }
}
