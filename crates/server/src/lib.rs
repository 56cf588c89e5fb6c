//! `vroom-server` — the server side of Vroom: dependency resolution,
//! dependency-hint headers, push policies, device equivalence classes, and
//! a real wire-level HTTP/2 server.
//!
//! * [`resolve`] — offline + online dependency resolution with the paper's
//!   personalization rules (§4.1–§4.2), plus the strawman strategies the
//!   evaluation compares against,
//! * [`online`] — online analysis over *real rendered markup* via the real
//!   scanner (the wire-path twin of the model-based resolver),
//! * [`accuracy`] — false-negative/false-positive scoring against the
//!   predictable subset (§6.2, Fig 21),
//! * [`hints`] — Table 1's header encoding (`Link` preload /
//!   `x-semi-important` / `x-unimportant`),
//! * [`push_policy`] — which local dependencies to PUSH (§4.3),
//! * [`device`] — device-type equivalence classes (§4.1.2, Fig 9),
//! * [`store`] — the shared hint store behind the fleet serving path: the
//!   [`store::HintStore`] trait, its one [`store::ShardedStore`]
//!   implementation (one shard is the single-lock layout), and logical
//!   contention counters,
//! * [`batch`] — batched resolution: one pure resolver pass per
//!   (page, hour, device) shared by every client in a batch window,
//! * [`freshness`] — the hint-freshness loop: observed-load feedback into
//!   the store and the Fig 7 calibration for the TTL eviction policy,
//! * [`wire`] — a working Vroom server + client speaking real HTTP/2 over
//!   TCP, serving a Mahimahi-style replay store.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod batch;
pub mod device;
pub mod freshness;
pub mod hints;
pub mod online;
pub mod push_policy;
pub mod resolve;
pub mod store;
pub mod wire;

#[cfg(test)]
mod resolve_tests;

pub use accuracy::{evaluate, evaluate_aged, Accuracy, ClientTruth};
pub use batch::{commit_pass_at, hour_bucket, run_pass, PassOutput};
pub use freshness::{
    hint_quality_by_age, observed_pass, CALIBRATED_TTL_HOURS, PERSISTENCE_1H, PERSISTENCE_1WEEK,
};
pub use hints::{attach_hints, parse_hints};
pub use push_policy::{select_pushes, PushPolicy};
pub use resolve::{resolve, Resolution, ResolverInput, Strategy, UrlHint, CRAWLER_USER};
pub use store::{EvictionPolicy, FreshRead, FreshnessStats, HintStore, ShardStats, ShardedStore};
pub use wire::{MonotonicClock, WireClient, WireClock, WireFaults, WireServer, WireSite};
