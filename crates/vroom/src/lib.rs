//! `vroom` — a from-scratch Rust reproduction of *Vroom: Accelerating the
//! Mobile Web with Server-Aided Dependency Resolution* (SIGCOMM 2017).
//!
//! Vroom rethinks how clients and servers cooperate during page loads:
//! clients still fetch every resource directly from the domain that hosts
//! it (preserving HTTPS integrity and cookie confinement), but servers aid
//! discovery by **pushing** high-priority local dependencies (HTTP/2
//! PUSH_PROMISE) and returning **dependency hints** (`Link` preload,
//! `x-semi-important`, `x-unimportant` headers) for everything else —
//! decoupling the client's CPU from its network.
//!
//! This crate is the top of the workspace: it combines the substrates
//! (`vroom-html`, `vroom-net`, `vroom-pages`, `vroom-browser`,
//! `vroom-server`) into the paper's systems and experiments. The real
//! HTTP/2 stack (`vroom-hpack`, `vroom-http2`) serves the wire path in
//! `vroom-server`; no simulated load passes through it.
//!
//! # Quickstart
//!
//! ```
//! use vroom::{run_load, System};
//! use vroom_net::NetworkProfile;
//! use vroom_pages::{LoadContext, PageGenerator, SiteProfile};
//!
//! let site = PageGenerator::new(SiteProfile::news(), 42);
//! let ctx = LoadContext::reference();
//! let lte = NetworkProfile::lte();
//!
//! let baseline = run_load(&site, &ctx, &lte, System::Http2, 7);
//! let vroom = run_load(&site, &ctx, &lte, System::Vroom, 7);
//! assert!(vroom.plt < baseline.plt);
//! ```

#![forbid(unsafe_code)]

pub mod ablation;
pub mod experiment;
pub mod load;
pub mod policy;
pub mod stats;

pub use experiment::ExperimentConfig;
pub use load::{lower_bound_plt, run_load, run_load_faulted, run_load_warm, SiteLoad};
pub use policy::{apply_fault_plan, cache_from_prior_load, System, HINT_DISCARD_THRESHOLD};
pub use stats::Cdf;
