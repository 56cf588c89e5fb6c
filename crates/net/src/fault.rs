//! Deterministic fault injection for the network substrate.
//!
//! A [`FaultPlan`] is a *pre-drawn schedule* of everything that will go
//! wrong during one page load: shared-link outages (packet-loss bursts and
//! bandwidth collapses), connection drops (surfacing as GOAWAY), truncated
//! response bodies (surfacing as RST_STREAM), and hint-set corruption
//! (stale server-side dependency knowledge, paper Fig. 17).
//!
//! Two properties make the chaos suite reproducible:
//!
//! 1. **Seeded construction** — plans are drawn from `vroom-sim`'s
//!    splittable [`Rng`], so a (seed, severity) pair names one plan forever.
//! 2. **Stateless decisions** — per-request rolls ([`FaultPlan::truncation`],
//!    [`FaultPlan::conn_drop`], [`FaultPlan::corrupt_hint`]) are pure hashes
//!    of `(plan seed, decision label)`. Query order cannot perturb outcomes,
//!    so two identically seeded loads stay byte-identical no matter how
//!    their event interleavings explore the plan.
//!
//! All probabilities are quantized to parts-per-million. The quantization
//! is part of what a `(seed, severity)` pair names: every committed faulted
//! result was drawn from quantized plans, so dropping it would change them.

use crate::link::CapacityWindow;
use vroom_sim::{Rng, SimDuration, SimTime};

/// One window during which the shared link degrades.
///
/// `factor == 0` models a packet-loss burst (no goodput at all);
/// `0 < factor < 1` models a bandwidth collapse to that fraction of
/// nominal capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// When the outage begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Remaining capacity fraction in `[0, 1)`.
    pub factor: f64,
}

/// Retry policy for a single fetch: how many attempts, how long each may
/// run, and how the client backs off between them.
///
/// Every retry loop in the workspace must consult one of these — the
/// `retry-budget` lint rule rejects bare retry loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Total attempts allowed per resource (first try included).
    pub max_attempts: u32,
    /// Per-attempt timeout; an attempt not finished by then is reset.
    pub timeout: SimDuration,
    /// Backoff before the second attempt; doubles per attempt after.
    pub backoff_base: SimDuration,
    /// Upper bound on any single backoff interval.
    pub backoff_cap: SimDuration,
}

impl RetryBudget {
    /// The default browser budget: three attempts, generous timeout,
    /// 250 ms initial backoff capped at 4 s.
    pub const fn standard() -> Self {
        RetryBudget {
            max_attempts: 3,
            timeout: SimDuration::from_secs(20),
            backoff_base: SimDuration::from_millis(250),
            backoff_cap: SimDuration::from_secs(4),
        }
    }

    /// Whether another attempt may start after `attempts` have been made.
    pub fn allows(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Capped exponential backoff before attempt `attempt + 1` (so after
    /// `attempt` failures): `base * 2^(attempt-1)`, clamped to the cap.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(20);
        let ns = self.backoff_base.as_nanos().saturating_mul(1u64 << shift);
        SimDuration::from_nanos(ns.min(self.backoff_cap.as_nanos()))
    }

    /// [`RetryBudget::backoff`] as a wall-clock duration, for the real
    /// wire client (which runs on actual threads, not simulated time).
    pub fn backoff_std(&self, attempt: u32) -> std::time::Duration {
        std::time::Duration::from_nanos(self.backoff(attempt).as_nanos())
    }
}

/// A deterministic schedule of injected faults for one load.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the stateless per-decision rolls.
    pub seed: u64,
    /// Link outages, sorted by start, non-overlapping.
    pub outages: Vec<Outage>,
    /// Probability that a given (domain, connection) is fated to drop.
    pub conn_drop_rate: f64,
    /// How long after the handshake a fated connection survives.
    pub conn_drop_delay: (SimDuration, SimDuration),
    /// Per-response-attempt probability of a truncated body.
    pub truncate_rate: f64,
    /// Fraction of server hints corrupted to stale URLs. Policies discard
    /// hint sets entirely past their staleness threshold.
    pub hint_corruption: f64,
}

/// Label streams for the stateless rolls; distinct per decision family so
/// a truncation roll can never alias a drop roll.
const STREAM_TRUNCATE: u64 = 1;
const STREAM_TRUNCATE_FRAC: u64 = 2;
const STREAM_DROP: u64 = 3;
const STREAM_DROP_DELAY: u64 = 4;
const STREAM_HINT: u64 = 5;

impl FaultPlan {
    /// The no-fault plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            outages: Vec::new(),
            conn_drop_rate: 0.0,
            conn_drop_delay: (SimDuration::ZERO, SimDuration::ZERO),
            truncate_rate: 0.0,
            hint_corruption: 0.0,
        }
    }

    /// Whether this plan can inject anything at all. Inactive plans keep
    /// the engine on its fault-free fast path (no timers, no extra events),
    /// so fault-free loads stay byte-identical to the pre-fault engine.
    pub fn is_active(&self) -> bool {
        !self.outages.is_empty()
            || self.conn_drop_rate > 0.0
            || self.truncate_rate > 0.0
            || self.hint_corruption > 0.0
    }

    /// Draw a plan from `vroom-sim`'s RNG. `severity` in `[0, 1]` scales
    /// every knob: 0 is calm weather, 1 is a very bad day on the train.
    fn from_rng(rng: &mut Rng, severity: f64) -> Self {
        let severity = severity.clamp(0.0, 1.0);
        let seed = rng.next_u64();
        // Outages: up to three, drawn sequentially with gaps so they are
        // sorted and disjoint by construction.
        let n_outages = (severity * 3.0).round() as usize;
        let mut outages = Vec::new();
        let mut cursor = SimTime::from_millis(rng.range_u64(100, 1500));
        for _ in 0..n_outages {
            let duration =
                SimDuration::from_millis(rng.range_u64(50, 400 + (severity * 800.0) as u64));
            // Half the windows are total-loss bursts, half are collapses.
            let factor = if rng.chance(0.5) {
                0.0
            } else {
                ppm(rng.range_f64(0.05, 0.5))
            };
            outages.push(Outage {
                start: cursor,
                duration,
                factor,
            });
            cursor = cursor + duration + SimDuration::from_millis(rng.range_u64(200, 2000));
        }
        FaultPlan {
            seed,
            outages,
            conn_drop_rate: ppm(severity * rng.range_f64(0.0, 0.25)),
            conn_drop_delay: (
                SimDuration::from_millis(rng.range_u64(20, 300)),
                SimDuration::from_millis(rng.range_u64(300, 2500)),
            ),
            truncate_rate: ppm(severity * rng.range_f64(0.0, 0.20)),
            hint_corruption: ppm(severity * rng.range_f64(0.0, 0.40)),
        }
    }

    /// Convenience: a plan named by `(seed, severity)` alone.
    pub fn from_seed(seed: u64, severity: f64) -> Self {
        // Derive a child stream so plan draws never alias page-generation
        // draws made from the same seed.
        let mut rng = Rng::new(seed).derive(0xFA_017);
        Self::from_rng(&mut rng, severity)
    }

    /// A plan whose only fault is hint corruption: the network behaves
    /// perfectly but `fraction` of the server's dependency metadata points
    /// at stale URLs. This is the knob the staleness experiments (Fig 17)
    /// turn — isolating "the resolver's knowledge aged" from "the network
    /// had a bad day".
    pub fn hint_corruption_only(seed: u64, fraction: f64) -> Self {
        FaultPlan {
            seed,
            hint_corruption: ppm(fraction.clamp(0.0, 1.0)),
            ..FaultPlan::none()
        }
    }

    /// The plan's outages as a capacity schedule for [`crate::SharedLink`].
    pub fn capacity_windows(&self) -> Vec<CapacityWindow> {
        self.outages
            .iter()
            .map(|o| CapacityWindow {
                start: o.start,
                end: o.start + o.duration,
                factor: o.factor,
            })
            .collect()
    }

    // ------------------------------------------------------- pure decisions

    /// Stateless uniform roll in `[0, 1)` for a decision label.
    fn roll(&self, stream: u64, label: &str, index: u64) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        // splitmix64 finalizer.
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does attempt `attempt` at `url` get its body truncated? Returns the
    /// fraction of the body that *does* arrive before the reset.
    pub fn truncation(&self, url: &str, attempt: u32) -> Option<f64> {
        if self.truncate_rate <= 0.0 {
            return None;
        }
        if self.roll(STREAM_TRUNCATE, url, attempt as u64) < self.truncate_rate {
            let frac = self.roll(STREAM_TRUNCATE_FRAC, url, attempt as u64);
            Some(0.1 + 0.8 * frac)
        } else {
            None
        }
    }

    /// Is connection `conn` to `domain` fated to drop? Returns how long
    /// after its handshake it survives. Applies once per (domain, conn):
    /// the replacement connection is spared, so every load terminates.
    pub fn conn_drop(&self, domain: &str, conn: usize) -> Option<SimDuration> {
        if self.conn_drop_rate <= 0.0 {
            return None;
        }
        if self.roll(STREAM_DROP, domain, conn as u64) < self.conn_drop_rate {
            let (lo, hi) = self.conn_drop_delay;
            let span = hi.as_nanos().saturating_sub(lo.as_nanos()).max(1);
            let f = self.roll(STREAM_DROP_DELAY, domain, conn as u64);
            Some(SimDuration::from_nanos(
                lo.as_nanos() + (f * span as f64) as u64,
            ))
        } else {
            None
        }
    }

    /// Is the `index`-th hint attached to `html_url` corrupted (points at a
    /// stale URL instead of a live one)?
    pub fn corrupt_hint(&self, html_url: &str, index: usize) -> bool {
        self.hint_corruption > 0.0
            && self.roll(STREAM_HINT, html_url, index as u64) < self.hint_corruption
    }
}

/// Quantize a probability/fraction in `[0, 1]` to parts-per-million.
fn ppm(x: f64) -> f64 {
    ((x.clamp(0.0, 1.0) * 1e6).round() as u64) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan::none().truncation("https://a/x.js", 1).is_none());
        assert!(FaultPlan::none().conn_drop("a.example", 0).is_none());
        assert!(!FaultPlan::none().corrupt_hint("https://a/", 3));
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::from_seed(42, 0.7);
        let b = FaultPlan::from_seed(42, 0.7);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::from_seed(43, 0.7));
    }

    #[test]
    fn decisions_are_stateless_and_order_independent() {
        let plan = FaultPlan::from_seed(7, 1.0);
        let t1 = plan.truncation("https://cdn.example/app.js", 1);
        let _ = plan.conn_drop("cdn.example", 0);
        let _ = plan.corrupt_hint("https://root/", 9);
        let t2 = plan.truncation("https://cdn.example/app.js", 1);
        assert_eq!(t1, t2, "interleaved queries must not perturb a roll");
    }

    #[test]
    fn outages_sorted_and_disjoint() {
        for seed in 0..50 {
            let plan = FaultPlan::from_seed(seed, 1.0);
            let w = plan.capacity_windows();
            for pair in w.windows(2) {
                assert!(pair[0].end <= pair[1].start, "overlap in seed {seed}");
            }
            for o in &plan.outages {
                assert!(o.factor < 1.0 && o.factor >= 0.0);
                assert!(o.duration > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn truncation_rate_is_respected_roughly() {
        let plan = FaultPlan {
            truncate_rate: 0.5,
            seed: 11,
            ..FaultPlan::none()
        };
        let hits = (0..1000)
            .filter(|i| plan.truncation(&format!("https://a/r{i}"), 1).is_some())
            .count();
        assert!((350..650).contains(&hits), "got {hits}/1000 at rate 0.5");
        for i in 0..1000 {
            if let Some(f) = plan.truncation(&format!("https://a/r{i}"), 1) {
                assert!((0.1..0.9001).contains(&f));
            }
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let b = RetryBudget::standard();
        assert_eq!(b.backoff(1), SimDuration::from_millis(250));
        assert_eq!(b.backoff(2), SimDuration::from_millis(500));
        assert_eq!(b.backoff(3), SimDuration::from_millis(1000));
        assert_eq!(b.backoff(10), SimDuration::from_secs(4), "cap binds");
        assert!(b.allows(0) && b.allows(2) && !b.allows(3));
    }
}
