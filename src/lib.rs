//! # ldr-repro — umbrella crate for the LDR reproduction
//!
//! Re-exports the three library crates of the workspace so examples
//! and integration tests can use one dependency:
//!
//! * [`ldr`] — the Labeled Distance Routing protocol (the paper's
//!   contribution);
//! * [`manet_baselines`] — AODV, DSR and OLSR;
//! * [`manet_sim`] — the deterministic discrete-event MANET simulator
//!   they all run on.
//!
//! See the repository `README.md` for a tour, `DESIGN.md` for the
//! system inventory and experiment index, and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub use ldr;
pub use manet_baselines;
pub use manet_sim;
