//! `vroom-net` — the network substrate for the Vroom reproduction.
//!
//! Substitutes for the paper's physical testbed (Nexus 6 on Verizon LTE,
//! Mahimahi record/replay on a tethered desktop):
//!
//! * [`link`] — a fluid-flow model of the shared cellular downlink; the
//!   bandwidth-contention mechanism behind the paper's scheduling results,
//! * [`latency`] — cellular + per-domain wired RTTs and handshake costs,
//! * [`profiles`] — named presets (LTE, 3G, 2G, WiFi, USB-tether),
//! * [`replay`] — a Mahimahi-style serializable record/replay store.

#![forbid(unsafe_code)]

pub mod fault;
pub mod json;
pub mod latency;
pub mod link;
pub mod profiles;
pub mod replay;

pub use fault::{FaultPlan, Outage, RetryBudget};
pub use latency::LatencyModel;
pub use link::{CapacityWindow, SharedLink, TransferId};
pub use profiles::NetworkProfile;
pub use replay::{RecordedResponse, ReplayStore};

#[cfg(test)]
mod proptests {
    use crate::link::SharedLink;
    use proptest::prelude::*;
    use vroom_sim::SimTime;

    proptest! {
        /// The fluid link is work-conserving: with arrivals at time zero,
        /// everything completes exactly at total_bytes/capacity; nothing
        /// completes earlier than its own fair-share time.
        #[test]
        fn link_work_conservation(
            sizes in proptest::collection::vec(1_000u64..2_000_000, 1..20),
            mbps in 1u64..100,
        ) {
            let mut link = SharedLink::new(mbps * 1_000_000);
            for &s in &sizes {
                link.start(SimTime::ZERO, s);
            }
            let total_secs = sizes.iter().sum::<u64>() as f64 * 8.0
                / (mbps as f64 * 1e6);
            // Just before the makespan, at least one transfer remains.
            let slack = 1e-6;
            let before = SimTime::from_nanos(((total_secs - slack).max(0.0) * 1e9) as u64);
            link.advance(before);
            prop_assert!(link.active() >= 1, "finished early");
            // Just after, everything is done.
            let after = SimTime::from_nanos(((total_secs + slack) * 1e9) as u64 + 10);
            link.advance(after);
            prop_assert_eq!(link.active(), 0, "finished late");
        }

        /// next_completion is consistent with advance: advancing to the
        /// predicted time always completes at least one transfer.
        #[test]
        fn link_prediction_consistency(
            sizes in proptest::collection::vec(1u64..500_000, 1..12),
        ) {
            let mut link = SharedLink::new(9_600_000);
            for &s in &sizes {
                link.start(SimTime::ZERO, s);
            }
            let mut now = SimTime::ZERO;
            let mut completed = 0;
            while let Some(at) = link.next_completion(now) {
                prop_assert!(at > now);
                completed += link.advance(at).len();
                now = at;
            }
            prop_assert_eq!(completed, sizes.len());
        }
    }
}
