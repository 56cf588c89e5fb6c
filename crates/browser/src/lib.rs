//! `vroom-browser` — a discrete-event model of a mobile browser's page load,
//! the stand-in for Chrome-on-a-Nexus-6 in the paper's testbed.
//!
//! See [`engine::BrowserEngine`] for the model and DESIGN.md §1 for the
//! substitution argument. The engine is policy-agnostic: [`LoadConfig`]
//! describes the HTTP version, server push/hint behaviour, client
//! scheduling, cache state, and lower-bound switches; `vroom` (the core
//! crate) builds one config per system in the paper's evaluation.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod metrics;
mod transport;

pub use config::{CacheEntry, FetchPolicy, Hint, HttpVersion, LoadConfig, ServerModel};
pub use engine::{BrowserEngine, EngineScratch};
pub use metrics::{quartiles, LoadResult, Quartiles, ResourceTiming};

#[cfg(test)]
mod engine_tests;
#[cfg(test)]
mod transport_tests;
