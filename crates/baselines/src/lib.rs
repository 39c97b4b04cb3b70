//! # manet-baselines — the comparison protocols of the LDR evaluation
//!
//! Clean-room implementations of the three protocols §4 of the paper
//! compares LDR against, all built on the same
//! [`manet_sim::protocol::RoutingProtocol`] interface:
//!
//! * [`aodv`] — Ad hoc On-demand Distance Vector routing
//!   (draft-ietf-manet-aodv-10): sequence-number-ordered reactive
//!   routing, whose number inflation on route breaks is the behaviour
//!   LDR's feasible-distance invariant removes (Fig. 7).
//! * [`dsr`] — Dynamic Source Routing (draft 03, with a draft-07
//!   flavour for the Fig. 6 cross-check): source routes in every data
//!   packet, aggressive route caches with no expiry.
//! * [`olsr`] — Optimized Link State Routing (draft 06) with the
//!   paper's FIFO jitter-queue fix: proactive link state flooded
//!   through multipoint relays.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]

pub mod aodv;
pub mod dsr;
pub mod olsr;

pub use aodv::{Aodv, AodvConfig};
pub use dsr::{Dsr, DsrConfig};
pub use olsr::{Olsr, OlsrConfig};
mod proptests;
