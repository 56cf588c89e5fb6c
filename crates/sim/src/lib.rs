//! `vroom-sim` — the deterministic discrete-event primitives underpinning
//! the Vroom reproduction.
//!
//! The crate provides three things: integer-nanosecond time ([`SimTime`],
//! [`SimDuration`]), a stable-ordered event queue ([`EventQueue`]), and a
//! seeded PRNG ([`Rng`]). It has no driver loop: the browser engine pops
//! its own [`EventQueue`], and the cellular link model is polled with the
//! current [`SimTime`]. Design rules, borrowed from smoltcp's sans-IO
//! philosophy:
//!
//! * **Explicit clocks.** No wall-clock reads anywhere; state machines are
//!   polled with a [`SimTime`].
//! * **Determinism.** Integer-nanosecond time, a stable FIFO tie-break for
//!   simultaneous events, and a seeded in-crate PRNG ([`Rng`]) make every run
//!   bit-for-bit reproducible.
//! * **Single thread.** Parallelism across *experiments* (not within a
//!   simulation) is how the benchmark harness scales.

#![forbid(unsafe_code)]

pub mod queue;
pub mod rng;
pub mod time;

pub use queue::EventQueue;
pub use rng::{mix, Rng};
pub use time::{SimDuration, SimTime};
