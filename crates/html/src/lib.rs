//! `vroom-html` — HTML/CSS scanning for resource discovery.
//!
//! This crate is the substrate behind Vroom's *online analysis* (paper
//! §4.1.2): when a Vroom-compliant server serves an HTML object, it parses
//! the bytes on the fly and includes every URL it sees as a dependency hint.
//! It provides:
//!
//! * [`Url`] — a minimal absolute-URL type with reference resolution,
//!   origin/site comparisons, and extension-based typing,
//! * [`tokenizer`] — a pragmatic WHATWG-ish HTML tokenizer that borrows
//!   start tags, their attributes and raw `script`/`style` text from the
//!   input and skips everything else,
//! * [`scanner`] — extraction of sub-resource references from HTML and CSS,
//!   with the [`ResourceKind`] and [`ExecMode`] taxonomy that drives Vroom's
//!   priority tiers.

#![forbid(unsafe_code)]

pub mod scanner;
pub mod tokenizer;
pub mod url;

pub use scanner::{scan_html, Discovered, ExecMode, ResourceKind};
pub use tokenizer::{Token, Tokenizer};
pub use url::Url;
